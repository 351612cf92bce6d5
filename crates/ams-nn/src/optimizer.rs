//! First-order optimizers over flattened parameter tensors.
//!
//! Networks expose their parameters as an ordered sequence of tensors
//! (flat `&mut [f32]` slices); gradients expose the same sequence. An
//! optimizer pairs them up positionally and keeps any per-tensor state
//! (e.g. Adam moments) in parallel buffers.

use std::hint::black_box;

/// A first-order optimizer.
pub trait Optimizer {
    /// Apply one update step. `params` and `grads` must be positionally
    /// aligned tensor sequences of identical shapes across calls.
    fn step(&mut self, params: &mut [&mut [f32]], grads: &[&[f32]]);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut [f32]], grads: &[&[f32]]) {
        assert_eq!(params.len(), grads.len());
        for (p, g) in params.iter_mut().zip(grads) {
            assert_eq!(p.len(), g.len());
            for (pi, gi) in p.iter_mut().zip(g.iter()) {
                *pi -= self.lr * gi;
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
///
/// Tensor 0 is treated as input-major rows (the sparse-input first layer
/// of a [`crate::QNet`]): [`Adam::step_rows`] sweeps only the rows it has
/// ever been handed, which is bitwise the dense [`Optimizer::step`]
/// whenever every other row's gradient is zero — such a row has
/// `g = m = v = 0`, so its update is an exact no-op. The optimizer keeps
/// that row set itself because it owns the moments: a row whose moments
/// are live is swept every step until the run ends.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    /// Width of tensor 0's rows, fixed by the first step.
    row_len: usize,
    /// Per row of tensor 0: whether it was ever handed to a step.
    live: Vec<bool>,
}

impl Adam {
    /// Adam with the usual defaults and the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            row_len: 0,
            live: Vec::new(),
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One update step in which only `rows` of tensor 0 (input-major rows
    /// of `row_len`; indices may repeat) can have a non-zero gradient.
    /// Sweeps those rows and every row handed to an earlier step, and
    /// every other tensor in full: bitwise the dense [`Optimizer::step`].
    /// `row_len` is fixed by the first step (a dense first step makes all
    /// of tensor 0 one row); a different one panics.
    pub fn step_rows(
        &mut self,
        params: &mut [&mut [f32]],
        grads: &[&[f32]],
        row_len: usize,
        rows: &[u32],
    ) {
        self.init(grads, row_len);
        for &r in rows {
            self.live[r as usize] = true;
        }
        self.sweep(params, grads);
    }

    /// How many moments (first and second) are subnormal right now.
    #[cfg(test)]
    fn subnormal_moments(&self) -> usize {
        let all = self.m.iter().chain(&self.v).flatten();
        all.filter(|x| x.is_subnormal()).count()
    }

    /// Allocate the moments and the row set on the first step.
    fn init(&mut self, grads: &[&[f32]], row_len: usize) {
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            self.v = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            let len0 = grads.first().map_or(0, |g| g.len());
            self.row_len = row_len.max(1);
            assert!(
                len0.is_multiple_of(self.row_len),
                "tensor 0 ({len0}) is not rows of {row_len}"
            );
            self.live = vec![false; len0 / self.row_len];
        }
        assert_eq!(self.row_len, row_len.max(1), "row width changed");
    }

    /// The update over the live rows of tensor 0 and all other tensors.
    fn sweep(&mut self, params: &mut [&mut [f32]], grads: &[&[f32]]) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(
            self.m.len(),
            params.len(),
            "tensor count changed between steps"
        );
        self.t += 1;
        let k = Coefs::new(self);
        let Self {
            m,
            v,
            row_len,
            live,
            ..
        } = self;
        for (i, ((p, g), (m, v))) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut().zip(v.iter_mut()))
            .enumerate()
        {
            assert_eq!(p.len(), g.len());
            if i > 0 {
                k.apply(p, g, m, v);
                continue;
            }
            // Maximal runs of live rows, each one contiguous span.
            let mut at = 0;
            for run in live.chunk_by(|a, b| a == b) {
                let span = at * *row_len..(at + run.len()) * *row_len;
                at += run.len();
                if run[0] {
                    k.apply(
                        &mut p[span.clone()],
                        &g[span.clone()],
                        &mut m[span.clone()],
                        &mut v[span],
                    );
                }
            }
        }
    }
}

impl Optimizer for Adam {
    /// The row-sparse step with every row of tensor 0 live (a first step
    /// makes tensor 0 one row).
    fn step(&mut self, params: &mut [&mut [f32]], grads: &[&[f32]]) {
        let row_len = if self.m.is_empty() {
            grads.first().map_or(0, |g| g.len())
        } else {
            self.row_len
        };
        self.init(grads, row_len);
        self.live.fill(true);
        self.sweep(params, grads);
    }
}

/// The six factors of one Adam step.
#[derive(Debug, Clone, Copy)]
struct Factors<T> {
    b1: T,
    c1: T,
    b2: T,
    c2: T,
    lr_bc: T,
    inv_bc2: T,
}

/// The magnitudes of a moment, and of a gradient, below which a group
/// takes the f64 path: an f32 `*`, `/` or `sqrt` whose operand or result
/// is subnormal takes a microcode assist (30–75x the op's cost), and above
/// these the sweep's products stay normal (`(c2·g)·g` with `c2 = 0.001` is
/// the tightest). They only choose a path: both paths compute the same
/// bits.
const MOMENT_FLOOR: f32 = 1.0 / (1u128 << 110) as f32;
const GRAD_FLOOR: f32 = 1.0 / (1u64 << 57) as f32;

/// Elements per group that picks its path.
const GROUP: usize = 16;

/// One step's constants, in f32 and widened to f64.
///
/// A group whose moments or gradients come near the subnormal range — as
/// every idle row's first moment does, decaying by β₁ each step — computes
/// each f32 `*`, `/` and `sqrt` of the update in f64 from its f32 operands
/// and rounds once with `as f32`. That is bitwise the f32 op: a product of
/// two f32 values is exact in f64, and for `/` and `sqrt` rounding through
/// binary64 first is innocuous because 53 ≥ 2·24 + 2. Adds stay f32; they
/// take no assist. Every other group runs the plain f32 formula, which
/// vectorizes twice as wide and divides faster.
///
/// The f64 factors pass through [`black_box`], and so does `one`, an
/// opaque 1.0 that the three ops whose operands are all plain f32 values
/// (`(c2·g)·g`, the `sqrt` and the final `/`) multiply by: otherwise the
/// compiler narrows `(a as f64 * b as f64) as f32`, and the `/` and `sqrt`
/// alike, back to the f32 op.
struct Coefs {
    narrow: Factors<f32>,
    wide: Factors<f64>,
    one: f64,
    eps: f32,
}

impl Coefs {
    fn new(opt: &Adam) -> Self {
        let inv_bc1 = 1.0 / (1.0 - opt.beta1.powi(opt.t as i32));
        let inv_bc2 = 1.0 / (1.0 - opt.beta2.powi(opt.t as i32));
        let (b1, b2) = (opt.beta1, opt.beta2);
        let narrow = Factors {
            b1,
            c1: 1.0 - b1,
            b2,
            c2: 1.0 - b2,
            lr_bc: opt.lr * inv_bc1,
            inv_bc2,
        };
        let wide = |x: f32| black_box(f64::from(x));
        Self {
            narrow,
            wide: Factors {
                b1: wide(narrow.b1),
                c1: wide(narrow.c1),
                b2: wide(narrow.b2),
                c2: wide(narrow.c2),
                lr_bc: wide(narrow.lr_bc),
                inv_bc2: wide(narrow.inv_bc2),
            },
            one: wide(1.0),
            eps: opt.eps,
        }
    }

    /// `m = b1·m + c1·g`, `v = b2·v + (c2·g)·g`,
    /// `p -= (lr_bc·m) / (sqrt(v·inv_bc2) + eps)`, element-wise over four
    /// slices of one length, in groups of [`GROUP`] that each pick a path.
    fn apply(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let n = p.len();
        let (g, m, v) = (&g[..n], &mut m[..n], &mut v[..n]);
        let (p, p_tail) = p.as_chunks_mut::<GROUP>();
        let (g, g_tail) = g.as_chunks::<GROUP>();
        let (m, m_tail) = m.as_chunks_mut::<GROUP>();
        let (v, v_tail) = v.as_chunks_mut::<GROUP>();
        for (((p, g), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
            self.apply_group(p, g, m, v);
        }
        self.apply_group(p_tail, g_tail, m_tail, v_tail);
    }

    #[inline(always)]
    fn apply_group(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        if near_subnormal(g, m, v) {
            self.apply_wide(p, g, m, v);
        } else {
            self.apply_narrow(p, g, m, v);
        }
    }

    /// The update in f32 ops.
    #[inline(always)]
    fn apply_narrow(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let Factors {
            b1,
            c1,
            b2,
            c2,
            lr_bc,
            inv_bc2,
        } = self.narrow;
        let n = p.len();
        let (g, m, v) = (&g[..n], &mut m[..n], &mut v[..n]);
        for i in 0..n {
            let gi = g[i];
            let mi = b1 * m[i] + c1 * gi;
            let vi = b2 * v[i] + c2 * gi * gi;
            m[i] = mi;
            v[i] = vi;
            p[i] -= lr_bc * mi / ((vi * inv_bc2).sqrt() + self.eps);
        }
    }

    /// The same update with every `*`, `/` and `sqrt` in f64.
    #[inline(always)]
    fn apply_wide(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let Factors {
            b1,
            c1,
            b2,
            c2,
            lr_bc,
            inv_bc2,
        } = self.wide;
        let one = self.one;
        let n = p.len();
        let (g, m, v) = (&g[..n], &mut m[..n], &mut v[..n]);
        for i in 0..n {
            let gi = f64::from(g[i]);
            let mi = (b1 * f64::from(m[i])) as f32 + (c1 * gi) as f32;
            let cg = f64::from((c2 * gi) as f32) * one;
            let vi = (b2 * f64::from(v[i])) as f32 + (cg * gi) as f32;
            m[i] = mi;
            v[i] = vi;
            let num = f64::from((lr_bc * f64::from(mi)) as f32) * one;
            let root = (f64::from((inv_bc2 * f64::from(vi)) as f32) * one).sqrt() as f32;
            p[i] -= (num / f64::from(root + self.eps)) as f32;
        }
    }
}

/// Whether some non-zero gradient is below [`GRAD_FLOOR`] or some
/// non-zero moment below [`MOMENT_FLOOR`], in one branch-free pass: the
/// bits of `|x|` minus one, wrapping, order the non-zero magnitudes and put
/// zero last, so each floor is one unsigned minimum and one compare.
#[inline(always)]
fn near_subnormal(g: &[f32], m: &[f32], v: &[f32]) -> bool {
    let n = g.len();
    let (m, v) = (&m[..n], &v[..n]);
    let key = |x: f32| (x.to_bits() & 0x7fff_ffff).wrapping_sub(1);
    let (mut lg, mut lmv) = (u32::MAX, u32::MAX);
    for i in 0..n {
        lg = lg.min(key(g[i]));
        lmv = lmv.min(key(m[i]).min(key(v[i])));
    }
    lg < key(GRAD_FLOOR) || lmv < key(MOMENT_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The update as plain f32 ops in the order Adam has always used — the
    /// reference both sweep paths must equal bitwise.
    fn reference(k: &Factors<f32>, eps: f32, p: f32, g: f32, m: f32, v: f32) -> [f32; 3] {
        let mi = k.b1 * m + k.c1 * g;
        let vi = k.b2 * v + k.c2 * g * g;
        [p - k.lr_bc * mi / ((vi * k.inv_bc2).sqrt() + eps), mi, vi]
    }

    /// An f32 in one of five regimes: normal (|x| in 2^-30..2^8),
    /// subnormal, ±0, just above the subnormal range (2^-126..2^-100), or a
    /// gradient whose square underflows (2^-100..2^-57).
    fn operand() -> impl Strategy<Value = f32> {
        (0u8..5, any::<u64>()).prop_map(|(kind, bits)| {
            let sign = (bits >> 63) as u32;
            let mant = bits as u32 & 0x007f_ffff;
            let pick = |lo: i32, hi: i32| lo + ((bits >> 23) % (hi - lo) as u64) as i32;
            let exp = match kind {
                0 => pick(-30, 8),
                1 => -127,
                2 => return if sign == 1 { -0.0 } else { 0.0 },
                3 => pick(-126, -100),
                _ => pick(-100, -57),
            };
            f32::from_bits(sign << 31 | ((exp + 127) as u32) << 23 | mant)
        })
    }

    proptest! {
        /// Both sweep paths, and the sweep that picks between them per
        /// group, equal the plain f32 update bit for bit on any mix of
        /// normal, subnormal, zero and tiny operands (the second moment is
        /// never negative).
        #[test]
        fn sweep_paths_equal_native_f32(
            xs in prop::collection::vec((any::<f32>(), operand(), operand(), operand()), 0..40),
            t in 1u64..4000,
            lr_exp in -14i32..-2,
        ) {
            let mut opt = Adam::new((lr_exp as f32).exp2());
            opt.t = t;
            let k = Coefs::new(&opt);
            let n = xs.len();
            let p0: Vec<f32> = xs.iter().map(|x| x.0).collect();
            let g: Vec<f32> = xs.iter().map(|x| x.1).collect();
            let m0: Vec<f32> = xs.iter().map(|x| x.2).collect();
            let v0: Vec<f32> = xs.iter().map(|x| x.3.abs()).collect();
            let want: Vec<[f32; 3]> = (0..n)
                .map(|i| reference(&k.narrow, k.eps, p0[i], g[i], m0[i], v0[i]))
                .collect();
            type Sweep = fn(&Coefs, &mut [f32], &[f32], &mut [f32], &mut [f32]);
            let sweeps: [(&str, Sweep); 3] = [
                ("apply", Coefs::apply),
                ("apply_narrow", Coefs::apply_narrow),
                ("apply_wide", Coefs::apply_wide),
            ];
            for (name, sweep) in sweeps {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                sweep(&k, &mut p, &g, &mut m, &mut v);
                for i in 0..n {
                    let got = [p[i], m[i], v[i]].map(f32::to_bits);
                    prop_assert_eq!(got, want[i].map(f32::to_bits), "{} element {}: g {:e} m {:e} v {:e}",
                        name, i, g[i], m0[i], v0[i]);
                }
            }
        }
    }

    /// The row-sparse step equals the dense one on every parameter and
    /// moment over 1 500 steps: rows 0..3 learn every step, rows 3..6 only
    /// for the first 100 steps and then sit idle long enough for their
    /// first moments to decay through the subnormal range to zero, rows
    /// 6..9 join at step 1 200 and rows 9..12 are never handed. The 40-wide
    /// rows put group tails inside tensor 0.
    #[test]
    fn row_sparse_step_matches_dense_through_subnormal_moments() {
        const ROWS: usize = 12;
        const W: usize = 40;
        let mut rng = StdRng::seed_from_u64(7);
        let w0: Vec<f32> = (0..ROWS * W).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut w_dense, mut w_sparse) = (w0.clone(), w0);
        let (mut b_dense, mut b_sparse) = (vec![0.5f32; 7], vec![0.5f32; 7]);
        let (mut dense, mut sparse) = (Adam::new(1e-2), Adam::new(1e-2));
        let mut subnormal_steps = 0;
        for step in 0..1500 {
            let mut rows: Vec<u32> = vec![0, 1, 2, 2];
            if step < 100 {
                rows.extend([3, 4, 5]);
            }
            if step >= 1200 {
                rows.extend([6, 7, 8]);
            }
            let mut gw = vec![0.0f32; ROWS * W];
            for &r in &rows {
                let r = r as usize;
                gw[r * W..(r + 1) * W].fill_with(|| rng.gen_range(-1.0..1.0));
            }
            let gb: Vec<f32> = (0..7).map(|_| rng.gen_range(-1.0..1.0)).collect();
            dense.step(&mut [&mut w_dense, &mut b_dense], &[&gw, &gb]);
            sparse.step_rows(&mut [&mut w_sparse, &mut b_sparse], &[&gw, &gb], W, &rows);
            subnormal_steps += usize::from(sparse.subnormal_moments() > 0);
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w_sparse), bits(&w_dense), "weights");
        assert_eq!(bits(&b_sparse), bits(&b_dense), "biases");
        for (a, b) in sparse
            .m
            .iter()
            .chain(&sparse.v)
            .zip(dense.m.iter().chain(&dense.v))
        {
            assert_eq!(bits(a), bits(b), "moments");
        }
        assert!(
            subnormal_steps >= 100,
            "the idle rows' moments must pass through the subnormal range \
             ({subnormal_steps} steps had one)"
        );
    }

    /// Minimize f(x) = Σ (x_i − c_i)^2 and check convergence.
    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> Vec<f32> {
        let target = [3.0f32, -2.0, 0.5];
        let mut x = vec![0.0f32; 3];
        for _ in 0..steps {
            let g: Vec<f32> = x
                .iter()
                .zip(&target)
                .map(|(xi, ti)| 2.0 * (xi - ti))
                .collect();
            let mut params: Vec<&mut [f32]> = vec![&mut x];
            opt.step(&mut params, &[&g]);
        }
        x.iter()
            .zip(&target)
            .map(|(xi, ti)| (xi - ti).abs())
            .collect()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd { lr: 0.1 };
        let err = optimize(&mut opt, 200);
        assert!(err.iter().all(|&e| e < 1e-3), "{err:?}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let err = optimize(&mut opt, 500);
        assert!(err.iter().all(|&e| e < 1e-2), "{err:?}");
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn adam_handles_multiple_tensors() {
        let mut opt = Adam::new(0.1);
        let mut a = vec![1.0f32];
        let mut b = vec![-1.0f32, 2.0];
        for _ in 0..300 {
            let ga = vec![2.0 * a[0]];
            let gb: Vec<f32> = b.iter().map(|x| 2.0 * x).collect();
            let mut params: Vec<&mut [f32]> = vec![&mut a, &mut b];
            opt.step(&mut params, &[&ga, &gb]);
        }
        assert!(a[0].abs() < 1e-2);
        assert!(b.iter().all(|x| x.abs() < 1e-2));
    }

    #[test]
    #[should_panic]
    fn mismatched_tensor_counts_panic() {
        let mut opt = Sgd { lr: 0.1 };
        let mut a = vec![0.0f32];
        let mut params: Vec<&mut [f32]> = vec![&mut a];
        opt.step(&mut params, &[]);
    }
}
