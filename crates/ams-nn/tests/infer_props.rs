//! Property test for the inference kernel: `QInfer::q_into` must equal
//! `QNet::forward` **bitwise** for every shape `QNetConfig` can express —
//! linear and dueling heads, hidden widths that exercise every column
//! tile (8 = narrow tiles only, 100 = 64 + 32 + four single columns,
//! 256 = whole 64-wide tiles), deeper and absent trunks, action counts
//! around the 8-float lane padding, and empty through dense states.

use ams_nn::{FwdCache, InferScratch, Input, QInfer, QNet, QNetConfig};
use proptest::prelude::*;

const DIM: usize = 120;

/// Trunk shapes under test; the empty one puts the head on the raw input.
const TRUNKS: [&[usize]; 6] = [&[8], &[100], &[256], &[16, 8], &[100, 72], &[]];

/// A network whose biases are non-zero (a fresh net's are all `0.0`, which
/// would hide a kernel that forgot them).
fn net(hidden: &[usize], actions: usize, dueling: bool, seed: u64) -> QNet {
    let mut net = QNet::new(
        QNetConfig {
            input_dim: DIM,
            hidden: hidden.to_vec(),
            actions,
            dueling,
        },
        seed,
    );
    // Odd tensors are the biases (canonical order: w, b per layer).
    for (t, tensor) in net.tensors_mut().into_iter().enumerate() {
        if t % 2 == 1 {
            for (i, b) in tensor.iter_mut().enumerate() {
                *b = ((seed as usize + 31 * t + 7 * i) % 23) as f32 * 0.043 - 0.47;
            }
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn q_into_is_bit_identical_to_forward(
        trunk in 0usize..TRUNKS.len(),
        actions in 1usize..=40,
        dueling in any::<bool>(),
        seed in any::<u64>(),
        states in prop::collection::vec(
            prop::collection::btree_set(0u32..DIM as u32, 0..DIM),
            1..6,
        ),
    ) {
        let net = net(TRUNKS[trunk], actions, dueling, seed);
        let view = QInfer::new(&net);
        // One scratch and one cache across states: stale contents from a
        // previous (longer or shorter) state must not leak into the next.
        let mut scratch = InferScratch::default();
        let mut cache = FwdCache::default();
        let mut q = vec![0.0f32; actions];
        // Every case also meets the empty and a one-label state.
        let single = [(seed % DIM as u64) as u32].into();
        for state in states.iter().chain([&Default::default(), &single]) {
            let active: Vec<u32> = state.iter().copied().collect();
            view.q_into(&net, &active, &mut scratch, &mut q);
            let want = net.forward(Input::Sparse(&active), &mut cache);
            for (a, (got, want)) in q.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "trunk {:?} actions {} dueling {} active {} action {}: {} vs {}",
                    TRUNKS[trunk], actions, dueling, active.len(), a, got, want
                );
            }
        }
    }
}
