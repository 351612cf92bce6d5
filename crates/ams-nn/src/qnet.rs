//! The Q-value network: trunk of ReLU dense layers plus a linear or dueling
//! head, exactly parameterizable as the paper's architecture
//! (1104 → 256 ReLU → 31, §IV-B).

use crate::dense::{BatchInput, Dense, DenseGrad, Input};
use crate::matrix::{axpy, dot, Mat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Network head: plain linear Q output, or dueling value/advantage streams
/// combined as `Q(s,a) = V(s) + A(s,a) − mean_a A(s,a)` (Wang et al.).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Head {
    /// Single linear layer producing Q values.
    Linear(Dense),
    /// Dueling architecture.
    Dueling {
        /// State-value stream (fan_out = 1).
        value: Dense,
        /// Advantage stream (fan_out = actions).
        advantage: Dense,
    },
}

/// Architecture description for [`QNet::new`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QNetConfig {
    /// Input dimension (1104 labels in the paper).
    pub input_dim: usize,
    /// Hidden layer widths (the paper uses a single 256-unit layer).
    pub hidden: Vec<usize>,
    /// Number of actions (30 models + END = 31 in the paper).
    pub actions: usize,
    /// Whether to use the dueling head.
    pub dueling: bool,
}

impl QNetConfig {
    /// The paper's architecture: `input 1104 → 256 ReLU → 31`, linear head.
    pub fn paper(input_dim: usize, actions: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![256],
            actions,
            dueling: false,
        }
    }

    /// The paper's architecture with a dueling head (DuelingDQN rows).
    pub fn paper_dueling(input_dim: usize, actions: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![256],
            actions,
            dueling: true,
        }
    }
}

/// Forward-pass cache: every intermediate needed by the backward pass.
#[derive(Debug, Clone, Default)]
pub struct FwdCache {
    /// Post-ReLU activation of each trunk layer.
    pub acts: Vec<Vec<f32>>,
    /// Raw advantage-stream output (dueling only).
    pub adv: Vec<f32>,
    /// Raw value-stream output (dueling only).
    pub value: f32,
    /// Final Q values.
    pub q: Vec<f32>,
}

/// Backward-pass scratch: every intermediate gradient buffer the scalar
/// backward needs, reusable across calls so the training hot loop performs
/// no per-call heap allocation.
#[derive(Debug, Clone, Default)]
pub struct BwdCache {
    gfeat: Vec<f32>,
    gadv: Vec<f32>,
    gnext: Vec<f32>,
}

/// Minibatch forward-pass cache: one matrix per intermediate, reused
/// across gradient steps.
#[derive(Debug, Clone)]
pub struct BatchFwdCache {
    /// Post-ReLU activation of each trunk layer, `batch x width`.
    pub acts: Vec<Mat>,
    /// Raw advantage-stream outputs (dueling only), `batch x actions`.
    pub adv: Mat,
    /// Value-stream output per sample (dueling only).
    pub value: Vec<f32>,
    /// Final Q values, `batch x actions`.
    pub q: Mat,
    /// Output-major transpose of the linear/advantage head weights, built
    /// per forward call; contiguous rows make the head GEMM and its
    /// backward run on full-width dots/axpys.
    wt_head: Mat,
}

impl Default for BatchFwdCache {
    fn default() -> Self {
        Self {
            acts: Vec::new(),
            adv: Mat::zeros(0, 0),
            value: Vec::new(),
            q: Mat::zeros(0, 0),
            wt_head: Mat::zeros(0, 0),
        }
    }
}

/// Minibatch backward-pass scratch, reusable across gradient steps.
#[derive(Debug, Clone)]
pub struct BatchBwdCache {
    gfeat: Mat,
    gadv: Mat,
    gnext: Mat,
    dwt: Mat,
}

impl Default for BatchBwdCache {
    fn default() -> Self {
        Self {
            gfeat: Mat::zeros(0, 0),
            gadv: Mat::zeros(0, 0),
            gnext: Mat::zeros(0, 0),
            dwt: Mat::zeros(0, 0),
        }
    }
}

/// Gradients mirroring a [`QNet`]'s tensors.
#[derive(Debug, Clone)]
pub struct QNetGrads {
    trunk: Vec<DenseGrad>,
    head_a: DenseGrad,
    head_b: Option<DenseGrad>,
}

impl QNetGrads {
    /// Zero all accumulators.
    pub fn zero(&mut self) {
        for g in &mut self.trunk {
            g.zero();
        }
        self.head_a.zero();
        if let Some(g) = &mut self.head_b {
            g.zero();
        }
    }

    /// Zero all accumulators, given that of the first trunk layer's
    /// weight gradient only `rows` (input indices; they may repeat) can be
    /// non-zero — the rows a sparse-input backward pass wrote. Zeroes
    /// everything when there is no trunk.
    pub fn zero_rows(&mut self, rows: &[u32]) {
        let Some((first, rest)) = self.trunk.split_first_mut() else {
            return self.zero();
        };
        for &r in rows {
            first.w.row_mut(r as usize).fill(0.0);
        }
        first.b.fill(0.0);
        for g in rest {
            g.zero();
        }
        self.head_a.zero();
        if let Some(g) = &mut self.head_b {
            g.zero();
        }
    }

    /// Scale all accumulators (e.g. by `1/batch`).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.trunk {
            g.scale(s);
        }
        self.head_a.scale(s);
        if let Some(g) = &mut self.head_b {
            g.scale(s);
        }
    }

    /// Tensors in canonical order, for the optimizer.
    pub fn tensors(&self) -> Vec<&[f32]> {
        let mut v = Vec::new();
        for g in &self.trunk {
            v.push(g.w.as_slice());
            v.push(g.b.as_slice());
        }
        v.push(self.head_a.w.as_slice());
        v.push(self.head_a.b.as_slice());
        if let Some(g) = &self.head_b {
            v.push(g.w.as_slice());
            v.push(g.b.as_slice());
        }
        v
    }
}

/// The Q network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QNet {
    trunk: Vec<Dense>,
    head: Head,
    config: QNetConfig,
}

impl QNet {
    /// Build a fresh network with He initialization under `seed`.
    pub fn new(config: QNetConfig, seed: u64) -> Self {
        assert!(config.actions > 0 && config.input_dim > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trunk = Vec::with_capacity(config.hidden.len());
        let mut prev = config.input_dim;
        for &h in &config.hidden {
            trunk.push(Dense::new(prev, h, &mut rng));
            prev = h;
        }
        let head = if config.dueling {
            Head::Dueling {
                value: Dense::new(prev, 1, &mut rng),
                advantage: Dense::new(prev, config.actions, &mut rng),
            }
        } else {
            Head::Linear(Dense::new(prev, config.actions, &mut rng))
        };
        Self {
            trunk,
            head,
            config,
        }
    }

    /// The architecture this network was built with.
    pub fn config(&self) -> &QNetConfig {
        &self.config
    }

    /// Number of actions (Q outputs).
    pub fn actions(&self) -> usize {
        self.config.actions
    }

    /// The ReLU trunk layers, input side first.
    pub fn trunk(&self) -> &[Dense] {
        &self.trunk
    }

    /// The output head.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        let dense = |d: &Dense| d.w.rows() * d.w.cols() + d.b.len();
        let mut n: usize = self.trunk.iter().map(dense).sum();
        n += match &self.head {
            Head::Linear(l) => dense(l),
            Head::Dueling { value, advantage } => dense(value) + dense(advantage),
        };
        n
    }

    /// Forward pass; fills `cache` and returns a reference to the Q values.
    ///
    /// Reusing one `cache` across calls avoids all per-call allocations —
    /// the training loop calls this hundreds of thousands of times.
    pub fn forward<'c>(&self, input: Input<'_>, cache: &'c mut FwdCache) -> &'c [f32] {
        let slots = self.trunk.len().max(1);
        if cache.acts.len() != slots {
            cache.acts.resize_with(slots, Vec::new);
        }
        for li in 0..self.trunk.len() {
            let layer = &self.trunk[li];
            // split so we can read acts[li-1] while writing acts[li]
            let (before, rest) = cache.acts.split_at_mut(li);
            let act = &mut rest[0];
            act.resize(layer.fan_out(), 0.0);
            if li == 0 {
                layer.forward(input, act);
            } else {
                layer.forward(Input::Dense(&before[li - 1]), act);
            }
            for a in act.iter_mut() {
                if *a < 0.0 {
                    *a = 0.0; // ReLU
                }
            }
        }
        if self.trunk.is_empty() {
            // materialize the input as acts[0] so backward has a feature view
            let x = &mut cache.acts[0];
            x.resize(self.config.input_dim, 0.0);
            x.fill(0.0);
            match input {
                Input::Dense(d) => x.copy_from_slice(d),
                Input::Sparse(idx) => {
                    for &i in idx {
                        x[i as usize] = 1.0;
                    }
                }
            }
        }
        // Disjoint field borrows: read acts, write q/adv/value.
        let feat: &[f32] = cache.acts.last().expect("feature activation");
        match &self.head {
            Head::Linear(l) => {
                cache.q.resize(l.fan_out(), 0.0);
                l.forward(Input::Dense(feat), &mut cache.q);
            }
            Head::Dueling { value, advantage } => {
                let mut v = [0.0f32];
                value.forward(Input::Dense(feat), &mut v);
                cache.adv.resize(advantage.fan_out(), 0.0);
                advantage.forward(Input::Dense(feat), &mut cache.adv);
                cache.value = v[0];
                let mean = cache.adv.iter().sum::<f32>() / cache.adv.len() as f32;
                cache.q.resize(cache.adv.len(), 0.0);
                for (q, a) in cache.q.iter_mut().zip(&cache.adv) {
                    *q = cache.value + a - mean;
                }
            }
        }
        &cache.q
    }

    /// Convenience: forward pass with a throwaway cache, returning owned Qs.
    pub fn q_values(&self, input: Input<'_>) -> Vec<f32> {
        let mut cache = FwdCache::default();
        self.forward(input, &mut cache);
        cache.q
    }

    /// Zeroed gradient accumulator with matching shapes.
    pub fn zero_grads(&self) -> QNetGrads {
        QNetGrads {
            trunk: self.trunk.iter().map(Dense::zero_grad).collect(),
            head_a: match &self.head {
                Head::Linear(l) => l.zero_grad(),
                Head::Dueling { value, .. } => value.zero_grad(),
            },
            head_b: match &self.head {
                Head::Linear(_) => None,
                Head::Dueling { advantage, .. } => Some(advantage.zero_grad()),
            },
        }
    }

    /// Backward pass: accumulate gradients of a scalar loss with gradient
    /// `grad_q` at the Q output, for the forward pass recorded in `cache`.
    ///
    /// `bwd` holds every intermediate gradient buffer; reusing one across
    /// calls makes the pass allocation-free.
    pub fn backward(
        &self,
        input: Input<'_>,
        cache: &FwdCache,
        grad_q: &[f32],
        grads: &mut QNetGrads,
        bwd: &mut BwdCache,
    ) {
        let feat: &[f32] = match self.trunk.len() {
            0 => &cache.acts[0],
            n => &cache.acts[n - 1],
        };
        // Head backward → gradient at the feature layer.
        let BwdCache { gfeat, gadv, gnext } = bwd;
        gfeat.resize(feat.len(), 0.0);
        gfeat.fill(0.0);
        match &self.head {
            Head::Linear(l) => {
                l.backward(Input::Dense(feat), grad_q, &mut grads.head_a, Some(gfeat));
            }
            Head::Dueling { value, advantage } => {
                // q_a = v + adv_a − mean(adv)
                // dv = Σ_a gq_a ; dadv_a = gq_a − mean(gq)
                let gsum: f32 = grad_q.iter().sum();
                let gmean = gsum / grad_q.len() as f32;
                let gv = [gsum];
                value.backward(Input::Dense(feat), &gv, &mut grads.head_a, Some(gfeat));
                gadv.resize(grad_q.len(), 0.0);
                for (ga, g) in gadv.iter_mut().zip(grad_q) {
                    *ga = g - gmean;
                }
                let gb = grads.head_b.as_mut().expect("dueling grads");
                advantage.backward(Input::Dense(feat), gadv, gb, Some(gfeat));
            }
        }
        // Trunk backward through ReLU masks, ping-ponging between the two
        // scratch buffers instead of allocating a fresh one per layer.
        let mut cur: &mut Vec<f32> = gfeat;
        let mut spare: &mut Vec<f32> = gnext;
        for li in (0..self.trunk.len()).rev() {
            // ReLU mask: zero where the activation was clipped.
            for (g, &a) in cur.iter_mut().zip(&cache.acts[li]) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
            if li == 0 {
                self.trunk[0].backward(input, cur, &mut grads.trunk[0], None);
            } else {
                spare.resize(self.trunk[li].fan_in(), 0.0);
                spare.fill(0.0);
                self.trunk[li].backward(
                    Input::Dense(&cache.acts[li - 1]),
                    cur,
                    &mut grads.trunk[li],
                    Some(spare),
                );
                std::mem::swap(&mut cur, &mut spare);
            }
        }
    }

    /// Batched forward pass: one GEMM per layer over the whole minibatch;
    /// returns the `batch x actions` Q matrix.
    ///
    /// Per sample the result matches [`QNet::forward`] to within float
    /// rounding (the property tests enforce 1e-5): the trunk kernels keep
    /// the scalar path's per-element accumulation order exactly, while the
    /// transposed head kernels use a multi-lane `dot` whose reassociated
    /// summation can differ from the scalar head in the last ULPs.
    pub fn forward_batch<'c>(
        &self,
        input: BatchInput<'_>,
        cache: &'c mut BatchFwdCache,
    ) -> &'c Mat {
        let batch = input.batch();
        let slots = self.trunk.len().max(1);
        if cache.acts.len() != slots {
            cache.acts.resize_with(slots, || Mat::zeros(0, 0));
        }
        for li in 0..self.trunk.len() {
            // split so we can read acts[li-1] while writing acts[li]
            let (before, rest) = cache.acts.split_at_mut(li);
            let act = &mut rest[0];
            if li == 0 {
                self.trunk[0].forward_batch(input, act);
            } else {
                self.trunk[li].forward_batch(BatchInput::Dense(&before[li - 1]), act);
            }
            for a in act.as_mut_slice() {
                if *a < 0.0 {
                    *a = 0.0; // ReLU
                }
            }
        }
        if self.trunk.is_empty() {
            // materialize the input as acts[0] so backward has a feature view
            let x = &mut cache.acts[0];
            x.resize_zeroed(batch, self.config.input_dim);
            match input {
                BatchInput::Dense(m) => x.as_mut_slice().copy_from_slice(m.as_slice()),
                BatchInput::Sparse(rows) => {
                    for (s, idx) in rows.iter().enumerate() {
                        let row = x.row_mut(s);
                        for &i in *idx {
                            row[i as usize] = 1.0;
                        }
                    }
                }
            }
        }
        // Disjoint field borrows: read acts, write q/adv/value.
        let feat: &Mat = cache.acts.last().expect("feature activations");
        match &self.head {
            Head::Linear(l) => {
                head_forward_t(l, feat, &mut cache.wt_head, &mut cache.q);
            }
            Head::Dueling { value, advantage } => {
                // Value stream: fan_out = 1, so its weight matrix is already
                // a contiguous column — one dot per sample.
                cache.value.resize(batch, 0.0);
                for s in 0..batch {
                    cache.value[s] = value.b[0] + dot(value.w.as_slice(), feat.row(s));
                }
                head_forward_t(advantage, feat, &mut cache.wt_head, &mut cache.adv);
                cache.q.resize_zeroed(batch, advantage.fan_out());
                for s in 0..batch {
                    let adv = cache.adv.row(s);
                    let mean = adv.iter().sum::<f32>() / adv.len() as f32;
                    let v = cache.value[s];
                    for (q, a) in cache.q.row_mut(s).iter_mut().zip(adv) {
                        *q = v + a - mean;
                    }
                }
            }
        }
        &cache.q
    }

    /// Batched backward pass matching [`QNet::forward_batch`]: accumulates
    /// the summed gradients of all samples into `grads` in one blocked
    /// sweep per layer.
    pub fn backward_batch(
        &self,
        input: BatchInput<'_>,
        cache: &BatchFwdCache,
        grad_q: &Mat,
        grads: &mut QNetGrads,
        bwd: &mut BatchBwdCache,
    ) {
        let batch = grad_q.rows();
        let feat: &Mat = cache.acts.last().expect("feature activations");
        debug_assert_eq!(feat.rows(), batch);
        let BatchBwdCache {
            gfeat,
            gadv,
            gnext,
            dwt,
        } = bwd;
        gfeat.resize_zeroed(batch, feat.cols());
        match &self.head {
            Head::Linear(l) => {
                head_backward_t(
                    l,
                    feat,
                    grad_q,
                    &cache.wt_head,
                    dwt,
                    &mut grads.head_a,
                    gfeat,
                );
            }
            Head::Dueling { value, advantage } => {
                gadv.resize_zeroed(batch, grad_q.cols());
                let gb = grads.head_b.as_mut().expect("dueling grads");
                for s in 0..batch {
                    let gq = grad_q.row(s);
                    let gsum: f32 = gq.iter().sum();
                    let gmean = gsum / gq.len() as f32;
                    for (ga, g) in gadv.row_mut(s).iter_mut().zip(gq) {
                        *ga = g - gmean;
                    }
                    // Value stream (fan_out 1): contiguous column, direct
                    // axpys instead of a degenerate GEMM.
                    if gsum != 0.0 {
                        let f = feat.row(s);
                        grads.head_a.b[0] += gsum;
                        axpy(grads.head_a.w.as_mut_slice(), f, gsum);
                        axpy(gfeat.row_mut(s), value.w.as_slice(), gsum);
                    }
                }
                head_backward_t(advantage, feat, gadv, &cache.wt_head, dwt, gb, gfeat);
            }
        }
        // Trunk backward through ReLU masks, ping-ponging scratch matrices.
        let mut cur: &mut Mat = gfeat;
        let mut spare: &mut Mat = gnext;
        for li in (0..self.trunk.len()).rev() {
            for (g, &a) in cur.as_mut_slice().iter_mut().zip(cache.acts[li].as_slice()) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
            if li == 0 {
                self.trunk[0].backward_batch(input, cur, &mut grads.trunk[0], None);
            } else {
                spare.resize_zeroed(batch, self.trunk[li].fan_in());
                self.trunk[li].backward_batch(
                    BatchInput::Dense(&cache.acts[li - 1]),
                    cur,
                    &mut grads.trunk[li],
                    Some(spare),
                );
                std::mem::swap(&mut cur, &mut spare);
            }
        }
    }

    /// Mutable parameter tensors in canonical order (matches
    /// [`QNetGrads::tensors`]).
    pub fn tensors_mut(&mut self) -> Vec<&mut [f32]> {
        let mut v = Vec::new();
        for l in &mut self.trunk {
            v.push(l.w.as_mut_slice());
            v.push(l.b.as_mut_slice());
        }
        match &mut self.head {
            Head::Linear(l) => {
                v.push(l.w.as_mut_slice());
                v.push(l.b.as_mut_slice());
            }
            Head::Dueling { value, advantage } => {
                v.push(value.w.as_mut_slice());
                v.push(value.b.as_mut_slice());
                v.push(advantage.w.as_mut_slice());
                v.push(advantage.b.as_mut_slice());
            }
        }
        v
    }

    /// Copy parameters from another network of identical architecture
    /// (target-network sync).
    pub fn copy_from(&mut self, other: &QNet) {
        let mut dst = self.tensors_mut();
        let src = other.tensors();
        assert_eq!(dst.len(), src.len(), "architecture mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            d.copy_from_slice(s);
        }
    }

    /// Immutable parameter tensors in canonical order.
    pub fn tensors(&self) -> Vec<&[f32]> {
        let mut v: Vec<&[f32]> = Vec::new();
        for l in &self.trunk {
            v.push(l.w.as_slice());
            v.push(l.b.as_slice());
        }
        match &self.head {
            Head::Linear(l) => {
                v.push(l.w.as_slice());
                v.push(l.b.as_slice());
            }
            Head::Dueling { value, advantage } => {
                v.push(value.w.as_slice());
                v.push(value.b.as_slice());
                v.push(advantage.w.as_slice());
                v.push(advantage.b.as_slice());
            }
        }
        v
    }
}

/// Batched forward of a small-fan-out head layer through an output-major
/// weight transpose: `out[s][o] = b[o] + dot(wt[o], feat[s])`, with both
/// operands contiguous and full-width. The straightforward input-major
/// kernel would stream `fan_out`-wide (e.g. 31-float) rows, which
/// vectorizes poorly. The reassociated dot reduction means head outputs
/// agree with the scalar path to float rounding, not bitwise.
fn head_forward_t(l: &Dense, feat: &Mat, wt: &mut Mat, out: &mut Mat) {
    let (fan_in, fan_out) = (l.fan_in(), l.fan_out());
    wt.resize_zeroed(fan_out, fan_in);
    for i in 0..fan_in {
        for (o, &v) in l.w.row(i).iter().enumerate() {
            *wt.get_mut(o, i) = v;
        }
    }
    let batch = feat.rows();
    out.resize_zeroed(batch, fan_out);
    for s in 0..batch {
        let f = feat.row(s);
        for (o, ov) in out.row_mut(s).iter_mut().enumerate() {
            *ov = l.b[o] + dot(wt.row(o), f);
        }
    }
}

/// Batched backward of a small-fan-out head layer. Weight gradients
/// accumulate output-major in `dwt` (full-width axpys, skipping the zero
/// entries of `grad_out` — TD gradients are one-hot per sample) and are
/// folded into `grad.w` once at the end; the input gradient reuses the
/// forward pass's `wt` transpose and is accumulated into `gfeat`.
fn head_backward_t(
    l: &Dense,
    feat: &Mat,
    grad_out: &Mat,
    wt: &Mat,
    dwt: &mut Mat,
    grad: &mut DenseGrad,
    gfeat: &mut Mat,
) {
    let (fan_in, fan_out) = (l.fan_in(), l.fan_out());
    let batch = feat.rows();
    debug_assert_eq!((wt.rows(), wt.cols()), (fan_out, fan_in));
    dwt.resize_zeroed(fan_out, fan_in);
    for s in 0..batch {
        let go = grad_out.row(s);
        let f = feat.row(s);
        for (gb, g) in grad.b.iter_mut().zip(go) {
            *gb += g;
        }
        for (o, &g) in go.iter().enumerate() {
            if g != 0.0 {
                axpy(dwt.row_mut(o), f, g);
                axpy(gfeat.row_mut(s), wt.row(o), g);
            }
        }
    }
    for i in 0..fan_in {
        for (o, gv) in grad.w.row_mut(i).iter_mut().enumerate() {
            *gv += dwt.get(o, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adam, Optimizer};

    fn small(dueling: bool) -> QNet {
        QNet::new(
            QNetConfig {
                input_dim: 12,
                hidden: vec![8],
                actions: 5,
                dueling,
            },
            42,
        )
    }

    #[test]
    fn forward_shapes() {
        for dueling in [false, true] {
            let net = small(dueling);
            let q = net.q_values(Input::Sparse(&[1, 5, 9]));
            assert_eq!(q.len(), 5);
            assert!(q.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn sparse_and_dense_agree() {
        for dueling in [false, true] {
            let net = small(dueling);
            let mut dense = vec![0.0f32; 12];
            for i in [2usize, 7, 11] {
                dense[i] = 1.0;
            }
            let qs = net.q_values(Input::Sparse(&[2, 7, 11]));
            let qd = net.q_values(Input::Dense(&dense));
            for (a, b) in qs.iter().zip(&qd) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dueling_q_invariant_under_advantage_shift() {
        // Adding a constant to every advantage leaves Q unchanged.
        let mut net = small(true);
        let q0 = net.q_values(Input::Sparse(&[3]));
        if let Head::Dueling { advantage, .. } = &mut net.head {
            for b in &mut advantage.b {
                *b += 10.0;
            }
        }
        let q1 = net.q_values(Input::Sparse(&[3]));
        for (a, b) in q0.iter().zip(&q1) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn param_count_paper_architecture() {
        let net = QNet::new(QNetConfig::paper(1104, 31), 0);
        // 1104*256 + 256 + 256*31 + 31
        assert_eq!(net.param_count(), 1104 * 256 + 256 + 256 * 31 + 31);
    }

    /// End-to-end gradient check through trunk + head, both architectures.
    ///
    /// Finite differences are invalid within `eps` of a ReLU kink, so the
    /// probe skips trunk parameters whose hidden unit's pre-activation is
    /// near zero.
    #[test]
    fn backward_matches_finite_differences() {
        for dueling in [false, true] {
            let mut net = small(dueling);
            let sparse = [1u32, 4, 10];
            let action = 2usize;
            let target = 0.7f32;
            // L = 0.5 (q_a − target)^2
            let loss = |net: &QNet| {
                let q = net.q_values(Input::Sparse(&sparse));
                0.5 * (q[action] - target).powi(2)
            };
            // pre-activations of the (single) trunk layer, for kink detection
            let hidden = net.trunk[0].fan_out();
            let mut pre = vec![0.0f32; hidden];
            net.trunk[0].forward(Input::Sparse(&sparse), &mut pre);

            let mut cache = FwdCache::default();
            net.forward(Input::Sparse(&sparse), &mut cache);
            let mut gq = vec![0.0f32; 5];
            gq[action] = cache.q[action] - target;
            let mut grads = net.zero_grads();
            let mut bwd = BwdCache::default();
            net.backward(Input::Sparse(&sparse), &cache, &gq, &mut grads, &mut bwd);
            let flat_grads: Vec<f32> = grads
                .tensors()
                .iter()
                .flat_map(|t| t.iter().copied())
                .collect();

            // numeric check on a sample of parameters
            let eps = 1e-3f32;
            let kink_margin = 0.02f32;
            let mut idx_global = 0usize;
            let n_tensors = net.tensors().len();
            let mut checked = 0usize;
            for t in 0..n_tensors {
                let len = net.tensors()[t].len();
                let stride = (len / 11).max(1);
                for i in (0..len).step_by(stride) {
                    // trunk tensors 0 (weights, in-major) and 1 (bias) feed
                    // hidden unit `o`; skip near-kink units.
                    if t < 2 {
                        let o = if t == 0 { i % hidden } else { i };
                        if pre[o].abs() < kink_margin {
                            continue;
                        }
                    }
                    let orig = net.tensors()[t][i];
                    net.tensors_mut()[t][i] = orig + eps;
                    let lp = loss(&net);
                    net.tensors_mut()[t][i] = orig - eps;
                    let lm = loss(&net);
                    net.tensors_mut()[t][i] = orig;
                    let fd = (lp - lm) / (2.0 * eps);
                    let analytic = flat_grads[idx_global + i];
                    assert!(
                        (fd - analytic).abs() < 3e-2,
                        "dueling={dueling} tensor {t} idx {i}: fd={fd} analytic={analytic}"
                    );
                    checked += 1;
                }
                idx_global += len;
            }
            assert!(
                checked > 20,
                "gradient check sampled too few parameters ({checked})"
            );
        }
    }

    #[test]
    fn training_reduces_td_error() {
        let mut net = small(false);
        let mut opt = Adam::new(0.01);
        let sparse = [0u32, 3];
        let action = 1usize;
        let target = 2.5f32;
        let initial = (net.q_values(Input::Sparse(&sparse))[action] - target).abs();
        for _ in 0..200 {
            let mut cache = FwdCache::default();
            net.forward(Input::Sparse(&sparse), &mut cache);
            let mut gq = vec![0.0f32; 5];
            gq[action] = cache.q[action] - target;
            let mut grads = net.zero_grads();
            let mut bwd = BwdCache::default();
            net.backward(Input::Sparse(&sparse), &cache, &gq, &mut grads, &mut bwd);
            let g = grads.tensors();
            let mut p = net.tensors_mut();
            opt.step(&mut p, &g);
        }
        let fin = (net.q_values(Input::Sparse(&sparse))[action] - target).abs();
        assert!(fin < 0.05, "initial {initial}, final {fin}");
    }

    #[test]
    fn copy_from_syncs_outputs() {
        let a = small(true);
        let mut b = QNet::new(a.config().clone(), 999);
        let input = Input::Sparse(&[2u32, 6]);
        assert!(a
            .q_values(input)
            .iter()
            .zip(b.q_values(input))
            .any(|(x, y)| (x - y).abs() > 1e-4));
        b.copy_from(&a);
        for (x, y) in a.q_values(input).iter().zip(b.q_values(input)) {
            assert!((x - y).abs() < 1e-7);
        }
    }

    #[test]
    fn grads_tensor_order_matches_params() {
        for dueling in [false, true] {
            let mut net = small(dueling);
            let grads = net.zero_grads();
            let g = grads.tensors();
            let p = net.tensors_mut();
            assert_eq!(g.len(), p.len());
            for (gi, pi) in g.iter().zip(&p) {
                assert_eq!(gi.len(), pi.len());
            }
        }
    }
}
