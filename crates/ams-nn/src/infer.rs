//! Inference-only Q kernel: a frozen view of a [`QNet`] whose forward is
//! bit-identical to [`QNet::forward`] and allocation-free.
//!
//! [`QNet::forward`] is a *training* forward: it keeps a backward cache
//! and walks 31-float head rows behind a data-dependent `x != 0` branch
//! (its sparse first layer already runs this module's kernel). Serving
//! needs neither. [`QInfer`] re-lays the head once (input-major, the
//! dueling value column appended to the advantage columns, rows
//! zero-padded to whole 8-float lanes: 31 → 32) and runs every layer
//! through one tiled kernel that holds a block of output columns in
//! registers while it streams the contributing weight rows, applying ReLU
//! as it stores.
//!
//! **Why bit-identical.** Per output element, `Dense::forward` computes
//! `b[c]`, then `+= x_i · w[i][c]` for the non-zero `x_i` in ascending
//! `i` (for sparse inputs `x_i = 1`, in the order given). The kernel
//! performs exactly those float operations in exactly that order for each
//! column — tiling changes which columns are computed together, never the
//! order within a column — with separate multiply and add (Rust never
//! contracts them into a fused multiply-add), the same `< 0` ReLU, and the
//! same dueling combine. Padding columns are computed and dropped.
//!
//! The view holds only the re-laid head (~32 KB at the paper shape); the
//! trunk is read from the [`QNet`] it was built from, which every call
//! takes alongside. Types that own both (`ams-rl`'s `AgentSnapshot`,
//! `ams-core`'s predictors) keep the pair together.

use crate::qnet::{Head, QNet, QNetConfig};

/// Head rows are padded to a multiple of this many floats (one AVX lane).
const LANE: usize = 8;

/// An immutable inference view of one [`QNet`]: build once per agent or
/// weight snapshot with [`QInfer::new`], then call [`QInfer::q_into`] with
/// the same network.
#[derive(Debug, Clone)]
pub struct QInfer {
    /// Head weights, `fan_in x lanes`, input-major. Columns
    /// `0..actions` are the linear (or advantage) stream, column `actions`
    /// the value stream when dueling, the rest zero padding.
    head_w: Vec<f32>,
    /// Head biases in the same column layout, `lanes` long.
    head_b: Vec<f32>,
    lanes: usize,
    /// Shape of the viewed network, checked against `net` on every call.
    config: QNetConfig,
}

/// Reusable buffers for [`QInfer::q_into`]; one per calling thread. Sized
/// on first use, so steady-state calls allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// Activations of the layer being read and the layer being written.
    x: Vec<f32>,
    y: Vec<f32>,
    /// Indices of the non-zero entries of `x`, ascending.
    nz: Vec<u32>,
    /// Padded head output.
    q: Vec<f32>,
}

impl QInfer {
    /// Re-lay `net`'s head for inference.
    pub fn new(net: &QNet) -> Self {
        let streams = match net.head() {
            Head::Linear(l) => vec![l],
            Head::Dueling { value, advantage } => vec![advantage, value],
        };
        let feat = streams[0].fan_in();
        let cols: usize = streams.iter().map(|d| d.fan_out()).sum();
        let lanes = cols.div_ceil(LANE) * LANE;
        let mut head_w = vec![0.0; feat * lanes];
        let mut head_b = vec![0.0; lanes];
        let mut at = 0;
        for d in streams {
            let n = d.fan_out();
            head_b[at..at + n].copy_from_slice(&d.b);
            for (i, row) in head_w.chunks_exact_mut(lanes).enumerate() {
                row[at..at + n].copy_from_slice(d.w.row(i));
            }
            at += n;
        }
        Self {
            head_w,
            head_b,
            lanes,
            config: net.config().clone(),
        }
    }

    /// Q values of the sparse binary state `active` (indices of the `1`
    /// entries), written into `out`: the first `out.len()` actions, so a
    /// scheduler that scores models only passes a `num_models`-long slice
    /// and the trailing END action is dropped without a copy.
    ///
    /// Bit-identical to `net.forward(Input::Sparse(active), ..)`. `net`
    /// must be the network this view was built from.
    ///
    /// # Panics
    /// Panics if `net`'s shape differs from the viewed network's, if
    /// `out` is longer than the network's action count, or if an index in
    /// `active` is outside the input dimension.
    pub fn q_into(&self, net: &QNet, active: &[u32], scratch: &mut InferScratch, out: &mut [f32]) {
        assert!(
            *net.config() == self.config,
            "QInfer used with a network of another shape"
        );
        let actions = self.config.actions;
        assert!(out.len() <= actions, "more outputs than actions");
        let InferScratch { x, y, nz, q } = scratch;
        match net.trunk().split_first() {
            Some((first, deeper)) => {
                x.resize(first.fan_out(), 0.0);
                affine::<true, true>(first.w.as_slice(), x.len(), &first.b, active, &[], x);
                for layer in deeper {
                    nonzero(x, nz);
                    y.resize(layer.fan_out(), 0.0);
                    affine::<false, true>(layer.w.as_slice(), y.len(), &layer.b, nz, x, y);
                    std::mem::swap(x, y);
                }
            }
            None => {
                // Trunkless: the head reads the 0/1 input itself, as
                // `QNet::forward` materializes it.
                x.clear();
                x.resize(self.config.input_dim, 0.0);
                for &i in active {
                    x[i as usize] = 1.0;
                }
            }
        }
        nonzero(x, nz);
        q.resize(self.lanes, 0.0);
        affine::<false, false>(&self.head_w, self.lanes, &self.head_b, nz, x, q);
        if self.config.dueling {
            let (adv, value) = (&q[..actions], q[actions]);
            let mean = adv.iter().sum::<f32>() / adv.len() as f32;
            for (o, a) in out.iter_mut().zip(adv) {
                *o = value + a - mean;
            }
        } else {
            out.copy_from_slice(&q[..out.len()]);
        }
    }
}

/// Collect the indices of `x`'s non-zero entries (`-0.0` is zero, NaN is
/// not — the `x != 0.0` test of `Dense::forward`), ascending. Branch-free:
/// every index is stored and the length advances only past the keepers,
/// because post-ReLU activations are zero about half the time and a
/// branch on them mispredicts.
pub(crate) fn nonzero(x: &[f32], nz: &mut Vec<u32>) {
    nz.clear();
    nz.resize(x.len(), 0);
    let mut n = 0;
    for (i, &v) in x.iter().enumerate() {
        nz[n] = i as u32;
        n += usize::from(v != 0.0);
    }
    nz.truncate(n);
}

/// One layer: `out[c] = act(b[c] + Σ x[i] · w[i·stride + c])` over the
/// rows `i` in `rows`, in the order given, for `c in 0..out.len()`; `act`
/// is ReLU when `RELU`. With `BINARY` every `x[i]` is 1 and `x` is unread.
/// Columns are tiled widest-first so a tile's accumulators stay in
/// registers across all rows. Fewer than 32 columns left take at most two
/// more passes — their whole 8-float lanes, then the rest — because a
/// pass per lane or per column would be that many serial add chains (a
/// 31-wide head took ten). Every scalar `QNet::forward` layer and the
/// sparse first layer of `QNet::forward_batch` run it too.
pub(crate) fn affine<const BINARY: bool, const RELU: bool>(
    w: &[f32],
    stride: usize,
    b: &[f32],
    rows: &[u32],
    x: &[f32],
    out: &mut [f32],
) {
    let mut col = 0;
    col = tiles::<64, BINARY, RELU>(w, stride, b, rows, x, out, col);
    col = tiles::<32, BINARY, RELU>(w, stride, b, rows, x, out, col);
    col = match (out.len() - col) / 8 {
        3 => tiles::<24, BINARY, RELU>(w, stride, b, rows, x, out, col),
        2 => tiles::<16, BINARY, RELU>(w, stride, b, rows, x, out, col),
        1 => tiles::<8, BINARY, RELU>(w, stride, b, rows, x, out, col),
        _ => col,
    };
    match out.len() - col {
        7 => tiles::<7, BINARY, RELU>(w, stride, b, rows, x, out, col),
        6 => tiles::<6, BINARY, RELU>(w, stride, b, rows, x, out, col),
        5 => tiles::<5, BINARY, RELU>(w, stride, b, rows, x, out, col),
        4 => tiles::<4, BINARY, RELU>(w, stride, b, rows, x, out, col),
        3 => tiles::<3, BINARY, RELU>(w, stride, b, rows, x, out, col),
        2 => tiles::<2, BINARY, RELU>(w, stride, b, rows, x, out, col),
        1 => tiles::<1, BINARY, RELU>(w, stride, b, rows, x, out, col),
        _ => col,
    };
}

/// Compute as many whole `W`-column tiles as fit from column `col` on;
/// returns the first column not computed.
#[inline(always)]
fn tiles<const W: usize, const BINARY: bool, const RELU: bool>(
    w: &[f32],
    stride: usize,
    b: &[f32],
    rows: &[u32],
    x: &[f32],
    out: &mut [f32],
    mut col: usize,
) -> usize {
    while col + W <= out.len() {
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(&b[col..col + W]);
        for &i in rows {
            let at = i as usize * stride + col;
            let row = &w[at..at + W];
            if BINARY {
                for (a, r) in acc.iter_mut().zip(row) {
                    *a += r;
                }
            } else {
                let xi = x[i as usize];
                for (a, r) in acc.iter_mut().zip(row) {
                    *a += xi * r;
                }
            }
        }
        for (o, &a) in out[col..col + W].iter_mut().zip(&acc) {
            *o = if RELU && a < 0.0 { 0.0 } else { a };
        }
        col += W;
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Input;
    use crate::qnet::{FwdCache, QNetConfig};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn paper_shape_pads_the_head_to_32_lanes_and_matches_forward() {
        for dueling in [false, true] {
            let cfg = QNetConfig {
                dueling,
                ..QNetConfig::paper(1104, 31)
            };
            let net = QNet::new(cfg, 3);
            let view = QInfer::new(&net);
            assert_eq!(view.lanes, 32);
            assert_eq!(view.head_w.len(), 256 * 32);
            let active = [0u32, 7, 300, 301, 1103];
            let mut q = vec![0.0; 31];
            view.q_into(&net, &active, &mut InferScratch::default(), &mut q);
            let mut cache = FwdCache::default();
            let want = net.forward(Input::Sparse(&active), &mut cache);
            assert_eq!(bits(&q), bits(want));
        }
    }

    #[test]
    fn short_out_takes_the_leading_actions() {
        let net = QNet::new(QNetConfig::paper_dueling(40, 6), 1);
        let view = QInfer::new(&net);
        let mut scratch = InferScratch::default();
        let (mut all, mut head) = (vec![0.0; 6], vec![0.0; 5]);
        view.q_into(&net, &[2, 9], &mut scratch, &mut all);
        view.q_into(&net, &[2, 9], &mut scratch, &mut head);
        assert_eq!(bits(&all[..5]), bits(&head));
    }

    #[test]
    #[should_panic(expected = "another shape")]
    fn a_network_of_another_shape_is_refused() {
        let view = QInfer::new(&QNet::new(QNetConfig::paper(40, 6), 1));
        let other = QNet::new(QNetConfig::paper(40, 7), 1);
        view.q_into(&other, &[1], &mut InferScratch::default(), &mut [0.0; 6]);
    }
}
