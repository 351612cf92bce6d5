//! Experience replay over sparse-state transitions.

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// One stored transition `(s, a, r, s', …)`.
///
/// States are stored sparsely (active label indices); `next_avail` records
/// which actions were available at `s'` so the TD target can mask executed
/// models; `next_action` records the action actually taken at `s'` (used by
/// the on-policy DeepSARSA target). States are shared `Arc` slices: one
/// step's `next_state` *is* the following step's `state`, so sharing the
/// buffer halves the per-step copies the trainer makes.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Sparse active-label indices of the state.
    pub state: Arc<[u32]>,
    /// Action taken.
    pub action: u8,
    /// Reward received.
    pub reward: f32,
    /// Sparse active-label indices of the next state.
    pub next_state: Arc<[u32]>,
    /// Availability mask at the next state.
    pub next_avail: u64,
    /// Action taken at the next state (meaningless when `done`).
    pub next_action: u8,
    /// Whether the episode terminated at `s'`.
    pub done: bool,
}

/// Fixed-capacity ring-buffer replay memory with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    buf: Vec<Transition>,
    cap: usize,
    pos: usize,
}

impl ReplayBuffer {
    /// Buffer holding at most `cap` transitions.
    ///
    /// # Panics
    /// Panics when `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "replay capacity must be positive");
        Self {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            pos: 0,
        }
    }

    /// Insert a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.buf.len() < self.cap {
            self.buf.push(t);
        } else {
            self.buf[self.pos] = t;
        }
        self.pos = (self.pos + 1) % self.cap;
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// A stored transition.
    pub fn get(&self, i: usize) -> &Transition {
        &self.buf[i]
    }

    /// Uniformly sample `batch` indices (with replacement).
    pub fn sample_indices(&self, batch: usize, rng: &mut StdRng) -> Vec<usize> {
        assert!(!self.buf.is_empty(), "cannot sample an empty buffer");
        (0..batch)
            .map(|_| rng.gen_range(0..self.buf.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(a: u8) -> Transition {
        Transition {
            state: Arc::new([1, 2]),
            action: a,
            reward: 0.5,
            next_state: Arc::new([1, 2, 3]),
            next_avail: 0b111,
            next_action: 0,
            done: false,
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut rb = ReplayBuffer::new(3);
        for a in 0..5u8 {
            rb.push(t(a));
        }
        assert_eq!(rb.len(), 3);
        // oldest entries (0, 1) evicted; 2, 3, 4 remain
        let actions: Vec<u8> = (0..3).map(|i| rb.get(i).action).collect();
        let mut sorted = actions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3, 4]);
    }

    #[test]
    fn sampling_is_in_bounds_and_deterministic() {
        let mut rb = ReplayBuffer::new(10);
        for a in 0..7u8 {
            rb.push(t(a));
        }
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let s1 = rb.sample_indices(32, &mut rng1);
        let s2 = rb.sample_indices(32, &mut rng2);
        assert_eq!(s1, s2);
        assert!(s1.iter().all(|&i| i < 7));
        assert_eq!(s1.len(), 32);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_empty_panics() {
        let rb = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rb.sample_indices(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
