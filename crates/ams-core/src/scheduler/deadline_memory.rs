//! Algorithm 2: model scheduling under deadline + GPU-memory constraints
//! (§V-B), in the multi-processor setting.
//!
//! Each planning iteration:
//! 1. greedily seeds with the unexecuted model maximizing
//!    `Q / (time · mem)` (value per unit resource *area*),
//! 2. sets the seed's finish time as a **temporary deadline** and fills the
//!    remaining memory with models maximizing `Q / mem` that would finish
//!    within it,
//! 3. waits until one running model completes, releases its memory, folds
//!    its output into the labeling state, and re-plans — with fresh
//!    predictions if that output added a label.
//!
//! Models still running at the overall deadline do not contribute value
//! (their execution did not complete in time).

use super::{recall, GreedyScore, ItemRun, QRow};
use crate::predictor::ValuePredictor;
use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId, ModelZoo};
use ams_sim::{ExecTrace, Job, Pool, Span};

/// Outcome of scheduling one item under deadline + memory constraints.
#[derive(Debug, Clone)]
pub struct DeadlineMemoryResult {
    /// Models whose execution *completed* within the deadline, in
    /// completion order.
    pub completed: Vec<ModelId>,
    /// Models admitted but still running at the deadline (no value).
    pub cut_off: Vec<ModelId>,
    /// Value recalled from completed models.
    pub value: f64,
    /// Recall rate.
    pub recall: f64,
    /// Execution trace of every admitted model, completed or cut off, in
    /// completion order.
    pub trace: ExecTrace,
    /// Peak memory observed, MB.
    pub peak_mem_mb: u32,
}

/// Run Algorithm 2 on one item.
pub fn schedule_deadline_memory(
    predictor: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    mem_budget_mb: u32,
    threshold: f32,
) -> DeadlineMemoryResult {
    let mut trace = ExecTrace::default();
    let mut cut_off = Vec::new();
    let run = plan(
        predictor,
        zoo,
        item,
        budget_ms,
        mem_budget_mb,
        threshold,
        |span, cut| {
            trace.push(span);
            if cut {
                cut_off.push(ModelId(span.job as u8));
            }
        },
    );
    let peak_mem_mb = trace.peak_mem_mb();
    DeadlineMemoryResult {
        completed: run.executed,
        cut_off,
        value: run.value,
        recall: recall(item, run.value),
        trace,
        peak_mem_mb,
    }
}

/// [`schedule_deadline_memory`] without the trace: the labeling path's
/// form. `elapsed_ms` is the trace's makespan, capped at the deadline.
pub(crate) fn deadline_memory_run(
    predictor: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    mem_budget_mb: u32,
    threshold: f32,
) -> ItemRun {
    let mut run = plan(
        predictor,
        zoo,
        item,
        budget_ms,
        mem_budget_mb,
        threshold,
        |_, _| {},
    );
    run.elapsed_ms = run.elapsed_ms.min(budget_ms);
    run
}

/// Algorithm 2's loop. Every admitted model's span goes to `on_span` in
/// completion order, with whether it was still running when the loop
/// ended (cut off). The returned run's `executed` are the models that
/// completed within the deadline and its `elapsed_ms` the last finish of
/// any admitted model (0 when nothing ran).
fn plan(
    predictor: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    mem_budget_mb: u32,
    threshold: f32,
    mut on_span: impl FnMut(Span, bool),
) -> ItemRun {
    let n = zoo.len();
    debug_assert_eq!(predictor.num_models(), n);
    let mut pool = Pool::new(mem_budget_mb);
    // A completion `(finish_ms, id, mem_mb)` as its span in the trace.
    let span = |(end_ms, id, mem_mb): (u64, usize, u32)| Span {
        job: id,
        start_ms: end_ms - u64::from(zoo.spec(ModelId(id as u8)).time_ms),
        end_ms,
        mem_mb,
    };
    let mut state = LabelSet::new(item.universe());
    let mut scheduled = 0u64; // admitted (running or done)
    let mut completed = Vec::with_capacity(n);
    let mut value = 0.0f64;
    let mut row = QRow::new(n);

    while pool.now_ms() < budget_ms {
        let now = pool.now_ms();

        // Step 1: seed by value per resource area among models that fit the
        // free memory and can finish before the overall deadline. The
        // prediction is needed only when some model does.
        let mut fits = 0u64;
        for (m, spec) in zoo.specs().iter().enumerate() {
            if scheduled >> m & 1 == 0
                && pool.fits(spec.mem_mb)
                && now + u64::from(spec.time_ms) <= budget_ms
            {
                fits |= 1 << m;
            }
        }

        if fits != 0 {
            let q = row.at(predictor, &state, item);
            let mut seed: Option<(usize, GreedyScore)> = None;
            for m in (0..n).filter(|&m| fits >> m & 1 == 1) {
                let spec = zoo.spec(ModelId(m as u8));
                let area = f64::from(spec.time_ms) / 1000.0 * f64::from(spec.mem_mb) / 1024.0;
                let score = GreedyScore::new(q[m], area);
                if seed.map(|(_, s)| score.better_than(&s)).unwrap_or(true) {
                    seed = Some((m, score));
                }
            }
            let (s, _) = seed.expect("a model fits");
            let spec = zoo.spec(ModelId(s as u8));
            let temp_deadline = now + u64::from(spec.time_ms);
            pool.admit(Job {
                id: s,
                time_ms: spec.time_ms,
                mem_mb: spec.mem_mb,
            });
            scheduled |= 1 << s;

            // Step 2: fill remaining memory with Q/mem-greedy picks that
            // finish within the temporary deadline.
            loop {
                let mut fill: Option<(usize, GreedyScore)> = None;
                #[allow(clippy::needless_range_loop)] // index pairs with the bitmask
                for m in 0..n {
                    if scheduled >> m & 1 == 1 {
                        continue;
                    }
                    let sp = zoo.spec(ModelId(m as u8));
                    if !pool.fits(sp.mem_mb) || now + u64::from(sp.time_ms) > temp_deadline {
                        continue;
                    }
                    let score = GreedyScore::new(q[m], f64::from(sp.mem_mb) / 1024.0);
                    if fill.map(|(_, s)| score.better_than(&s)).unwrap_or(true) {
                        fill = Some((m, score));
                    }
                }
                let Some((f, _)) = fill else { break };
                let sp = zoo.spec(ModelId(f as u8));
                pool.admit(Job {
                    id: f,
                    time_ms: sp.time_ms,
                    mem_mb: sp.mem_mb,
                });
                scheduled |= 1 << f;
            }
        } else if pool.next_finish_ms().is_none() {
            // Nothing runnable and nothing running: done.
            break;
        }

        // Step 3: wait for one completion and fold in its output.
        let Some(done) = pool.wait_next() else { break };
        on_span(span(done), false);
        if pool.now_ms() <= budget_ms {
            let m = ModelId(done.1 as u8);
            completed.push(m);
            value += item.apply(&mut state, m, threshold);
        }
    }

    // Anything still in flight at the deadline produced no value.
    while let Some(done) = pool.wait_next() {
        on_span(span(done), true);
    }
    ItemRun {
        executed: completed,
        value,
        elapsed_ms: pool.now_ms(),
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{OraclePredictor, UniformPredictor};
    use ams_data::{Dataset, DatasetProfile, TruthTable};

    fn fixture() -> (ModelZoo, TruthTable) {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::PascalVoc2012, 24, 17);
        let t = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        (zoo, t)
    }

    #[test]
    fn respects_memory_budget() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        for mem in [8192u32, 12288, 16384] {
            for item in t.items().iter().take(6) {
                let r = schedule_deadline_memory(&oracle, &zoo, item, 800, mem, 0.5);
                assert!(
                    r.peak_mem_mb <= mem,
                    "peak {} exceeds budget {mem}",
                    r.peak_mem_mb
                );
                assert!(r.trace.respects_memory(mem));
            }
        }
    }

    #[test]
    fn completed_models_finish_within_deadline() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let budget = 800u64;
        for item in t.items().iter().take(6) {
            let r = schedule_deadline_memory(&oracle, &zoo, item, budget, 12288, 0.5);
            let completed: std::collections::HashSet<usize> =
                r.completed.iter().map(|m| m.index()).collect();
            for span in &r.trace.spans {
                if completed.contains(&span.job) {
                    assert!(span.end_ms <= budget, "completed job past deadline");
                }
            }
            // no model appears in both lists
            for m in &r.cut_off {
                assert!(!completed.contains(&m.index()));
            }
        }
    }

    #[test]
    fn parallelism_beats_serial_at_same_deadline() {
        // With 16 GB the pool can run several models at once, so recall at a
        // tight deadline should beat Algorithm 1's serial recall.
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let mut par = 0.0;
        let mut ser = 0.0;
        for item in t.items() {
            par += schedule_deadline_memory(&oracle, &zoo, item, 800, 16384, 0.5).recall;
            ser +=
                crate::scheduler::deadline::schedule_deadline(&oracle, &zoo, item, 800, 0.5).recall;
        }
        assert!(par > ser, "parallel {par:.2} must beat serial {ser:.2}");
    }

    #[test]
    fn more_memory_never_hurts_much() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let mut lo = 0.0;
        let mut hi = 0.0;
        for item in t.items() {
            lo += schedule_deadline_memory(&oracle, &zoo, item, 800, 8192, 0.5).recall;
            hi += schedule_deadline_memory(&oracle, &zoo, item, 800, 16384, 0.5).recall;
        }
        assert!(
            hi >= lo * 0.98,
            "16 GB ({hi:.2}) should not lose to 8 GB ({lo:.2})"
        );
    }

    #[test]
    fn zero_budget_completes_nothing() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let r = schedule_deadline_memory(&oracle, &zoo, t.item(0), 0, 16384, 0.5);
        assert!(r.completed.is_empty());
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn no_duplicate_admissions() {
        let (zoo, t) = fixture();
        let uniform = UniformPredictor::new(30);
        for item in t.items().iter().take(6) {
            let r = schedule_deadline_memory(&uniform, &zoo, item, 3000, 16384, 0.5);
            let mut seen = std::collections::HashSet::new();
            for m in r.completed.iter().chain(&r.cut_off) {
                assert!(seen.insert(*m), "model {m} admitted twice");
            }
        }
    }

    /// Algorithm 2's every decision, pinned: an FNV-1a fold over each
    /// item's completed and cut-off models, the bits of its value and its
    /// trace spans in order, at 8, 12 and 16 GB. Recorded before the pool
    /// was rewritten; any change to admission order, tie-breaks or the
    /// trace moves it.
    #[test]
    fn golden_digest() {
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        }
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for mem in [8192u32, 12288, 16384] {
            for item in t.items() {
                let r = schedule_deadline_memory(&oracle, &zoo, item, 800, mem, 0.5);
                for list in [&r.completed, &r.cut_off] {
                    h = mix(h, list.len() as u64);
                    for m in list {
                        h = mix(h, m.index() as u64);
                    }
                }
                h = mix(h, r.value.to_bits());
                h = mix(h, r.trace.spans.len() as u64);
                for s in &r.trace.spans {
                    for x in [s.job as u64, s.start_ms, s.end_ms, u64::from(s.mem_mb)] {
                        h = mix(h, x);
                    }
                }
            }
        }
        assert_eq!(h, 0x0af8_2e2b_41a4_bab8, "Algorithm 2 digest {h:#018x}");
    }

    #[test]
    fn tiny_memory_budget_still_progresses() {
        // Even at 8 GB only the pose flagship fills the whole pool; the
        // scheduler must still run models one at a time.
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let r = schedule_deadline_memory(&oracle, &zoo, t.item(1), 2000, 8192, 0.5);
        assert!(!r.completed.is_empty(), "some models must complete");
    }
}
