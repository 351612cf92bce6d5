//! The schedulers as they were before [`QRow`](super::QRow): every
//! decision step asks the predictor again, whether or not the labeling
//! state changed. Test-only; the tests below hold Algorithm 1, Algorithm 2
//! and the unconstrained greedy to these loops bit for bit, and count the
//! predictions they save.

use super::{recall, GreedyScore};
use crate::framework::{AdaptiveModelScheduler, Budget, LabelingOutcome};
use crate::graph::{GraphPredictor, ModelRelationGraph};
use crate::policies::run_serial;
use crate::predictor::{
    AgentPredictor, OraclePredictor, SnapshotPredictor, StaticValuePredictor, UniformPredictor,
    ValuePredictor,
};
use crate::scheduler::deadline::schedule_deadline;
use crate::scheduler::deadline_memory::schedule_deadline_memory;
use ams_data::{Dataset, DatasetProfile, ItemTruth, TruthTable};
use ams_models::{LabelId, LabelSet, ModelId, ModelZoo};
use ams_rl::{train, AgentSnapshot, Algo, TrainConfig};
use ams_sim::{ExecTrace, Job, Pool, Span};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const THRESHOLD: f32 = 0.5;

/// A reference run: what the schedulers report, plus the state size at
/// every decision that had a candidate to score (the states a scheduler
/// must predict at).
struct Reference {
    executed: Vec<ModelId>,
    value: f64,
    recall: f64,
    elapsed_ms: u64,
    trace: ExecTrace,
    cut_off: Vec<ModelId>,
    scored_at: Vec<usize>,
}

impl Reference {
    /// Distinct states among `scored_at`: the predictions the schedulers
    /// make now.
    fn distinct_states(&self) -> usize {
        let mut counts = self.scored_at.clone();
        counts.dedup(); // the state only grows, so repeats are adjacent
        counts.len()
    }
}

/// The serial loop with a per-step prediction: Algorithm 1 when `budget`
/// is a deadline, the unconstrained greedy when it is `u64::MAX`.
fn serial(p: &dyn ValuePredictor, zoo: &ModelZoo, item: &ItemTruth, budget_ms: u64) -> Reference {
    let greedy = budget_ms == u64::MAX;
    let mut q = vec![0.0f32; zoo.len()];
    let mut scored_at = Vec::new();
    let r = run_serial(
        item,
        zoo,
        budget_ms,
        THRESHOLD,
        |state, mask, remaining, _| {
            p.predict_into(state, item, &mut q);
            let open = (0..q.len()).filter(|&m| mask >> m & 1 == 0);
            let pick = if greedy {
                let mut best: Option<(usize, f32)> = None;
                for m in open {
                    if best.map(|(_, bv)| q[m] > bv).unwrap_or(true) {
                        best = Some((m, q[m]));
                    }
                }
                best.map(|(m, v)| (m, v > 0.0))
            } else {
                let mut best: Option<(usize, GreedyScore)> = None;
                for m in open {
                    let time_ms = zoo.spec(ModelId(m as u8)).time_ms;
                    if u64::from(time_ms) > remaining {
                        continue;
                    }
                    let score = GreedyScore::new(q[m], f64::from(time_ms) / 1000.0);
                    if best.map(|(_, s)| score.better_than(&s)).unwrap_or(true) {
                        best = Some((m, score));
                    }
                }
                best.map(|(m, _)| (m, true))
            };
            if pick.is_some() {
                scored_at.push(state.count());
            }
            pick.filter(|&(_, run)| run).map(|(m, _)| ModelId(m as u8))
        },
    );
    Reference {
        executed: r.executed,
        value: r.value,
        recall: r.recall,
        elapsed_ms: r.elapsed_ms,
        trace: r.trace,
        cut_off: Vec::new(),
        scored_at,
    }
}

/// Algorithm 2 with a prediction at every planning iteration.
fn pool(
    p: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    mem_mb: u32,
) -> Reference {
    let n = zoo.len();
    let mut pool = Pool::new(mem_mb);
    let mut trace = ExecTrace::default();
    let span = |(end_ms, id, mem_mb): (u64, usize, u32)| Span {
        job: id,
        start_ms: end_ms - u64::from(zoo.spec(ModelId(id as u8)).time_ms),
        end_ms,
        mem_mb,
    };
    let mut state = LabelSet::new(item.universe());
    let (mut scheduled, mut completed, mut value) = (0u64, Vec::new(), 0.0f64);
    let mut scored_at = Vec::new();
    let mut q = vec![0.0f32; n];
    let admit = |pool: &mut Pool, scheduled: &mut u64, m: usize| {
        let spec = zoo.spec(ModelId(m as u8));
        pool.admit(Job {
            id: m,
            time_ms: spec.time_ms,
            mem_mb: spec.mem_mb,
        });
        *scheduled |= 1 << m;
    };
    while pool.now_ms() < budget_ms {
        let now = pool.now_ms();
        p.predict_into(&state, item, &mut q);
        let mut seed: Option<(usize, GreedyScore)> = None;
        for (m, &v) in q.iter().enumerate() {
            let spec = zoo.spec(ModelId(m as u8));
            if scheduled >> m & 1 == 1
                || !pool.fits(spec.mem_mb)
                || now + u64::from(spec.time_ms) > budget_ms
            {
                continue;
            }
            let area = f64::from(spec.time_ms) / 1000.0 * f64::from(spec.mem_mb) / 1024.0;
            let score = GreedyScore::new(v, area);
            if seed.map(|(_, s)| score.better_than(&s)).unwrap_or(true) {
                seed = Some((m, score));
            }
        }
        if let Some((s, _)) = seed {
            scored_at.push(state.count());
            let temp_deadline = now + u64::from(zoo.spec(ModelId(s as u8)).time_ms);
            admit(&mut pool, &mut scheduled, s);
            loop {
                let mut fill: Option<(usize, GreedyScore)> = None;
                for (m, &v) in q.iter().enumerate() {
                    let sp = zoo.spec(ModelId(m as u8));
                    if scheduled >> m & 1 == 1
                        || !pool.fits(sp.mem_mb)
                        || now + u64::from(sp.time_ms) > temp_deadline
                    {
                        continue;
                    }
                    let score = GreedyScore::new(v, f64::from(sp.mem_mb) / 1024.0);
                    if fill.map(|(_, s)| score.better_than(&s)).unwrap_or(true) {
                        fill = Some((m, score));
                    }
                }
                let Some((f, _)) = fill else { break };
                admit(&mut pool, &mut scheduled, f);
            }
        } else if pool.next_finish_ms().is_none() {
            break;
        }
        let Some(done) = pool.wait_next() else { break };
        trace.push(span(done));
        if pool.now_ms() <= budget_ms {
            let m = ModelId(done.1 as u8);
            completed.push(m);
            value += item.apply(&mut state, m, THRESHOLD);
        }
    }
    let mut cut_off = Vec::new();
    while let Some(done) = pool.wait_next() {
        trace.push(span(done));
        cut_off.push(ModelId(done.1 as u8));
    }
    Reference {
        elapsed_ms: trace.makespan_ms().min(budget_ms),
        executed: completed,
        value,
        recall: recall(item, value),
        trace,
        cut_off,
        scored_at,
    }
}

fn reference(p: &dyn ValuePredictor, zoo: &ModelZoo, item: &ItemTruth, b: Budget) -> Reference {
    match b {
        Budget::Unconstrained => serial(p, zoo, item, u64::MAX),
        Budget::Deadline { ms } => serial(p, zoo, item, ms),
        Budget::DeadlineMemory { ms, mem_mb } => pool(p, zoo, item, ms, mem_mb),
    }
}

/// The labels of `executed`, each at its highest confidence, built by
/// sorted insertion.
fn labels(item: &ItemTruth, executed: &[ModelId]) -> Vec<(LabelId, f32)> {
    let mut labels: Vec<(LabelId, f32)> = Vec::new();
    for &m in executed {
        for d in item.output(m).valuable(THRESHOLD) {
            match labels.binary_search_by_key(&d.label, |&(l, _)| l) {
                Ok(i) => labels[i].1 = labels[i].1.max(d.confidence),
                Err(i) => labels.insert(i, (d.label, d.confidence)),
            }
        }
    }
    labels
}

/// Counts `predict_into` calls.
struct Counting<'a> {
    inner: &'a dyn ValuePredictor,
    calls: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn ValuePredictor) -> Self {
        Self {
            inner,
            calls: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> usize {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl ValuePredictor for Counting<'_> {
    fn num_models(&self) -> usize {
        self.inner.num_models()
    }
    fn predict_into(&self, state: &LabelSet, item: &ItemTruth, out: &mut [f32]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_into(state, item, out);
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

struct Fixture {
    zoo: ModelZoo,
    truth: TruthTable,
    sched: AdaptiveModelScheduler,
    predictors: Vec<Box<dyn ValuePredictor>>,
}

/// A COCO-like world and one predictor of every kind, built once.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 24, 29);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, THRESHOLD);
        let agent = |algo, seed| {
            let cfg = TrainConfig {
                episodes: 12,
                seed,
                ..TrainConfig::fast_test(algo)
            };
            train(truth.items(), zoo.len(), &cfg).0
        };
        let graph =
            ModelRelationGraph::build(truth.items(), zoo.len(), zoo.catalog().len(), THRESHOLD);
        let predictors: Vec<Box<dyn ValuePredictor>> = vec![
            Box::new(OraclePredictor::new(zoo.len(), THRESHOLD)),
            Box::new(AgentPredictor::new(agent(Algo::Dqn, 3))),
            Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::new(
                agent(Algo::DuelingDqn, 4),
                2,
            )))),
            Box::new(GraphPredictor::new(graph)),
            Box::new(StaticValuePredictor::new(zoo.len())),
            Box::new(UniformPredictor::new(zoo.len())),
        ];
        let sched = AdaptiveModelScheduler::new(
            zoo.clone(),
            Box::new(OraclePredictor::new(zoo.len(), THRESHOLD)),
            THRESHOLD,
            ds.world_seed,
        );
        Fixture {
            zoo,
            truth,
            sched,
            predictors,
        }
    })
}

fn budgets(ms: u64, mem_mb: u32) -> [Budget; 3] {
    [
        Budget::Unconstrained,
        Budget::Deadline { ms },
        Budget::DeadlineMemory { ms, mem_mb },
    ]
}

fn label_bits(labels: &[(LabelId, f32)]) -> Vec<(LabelId, u32)> {
    labels.iter().map(|&(l, c)| (l, c.to_bits())).collect()
}

fn check_outcome(got: &LabelingOutcome, want: &Reference, item: &ItemTruth) {
    assert_eq!(got.executed, want.executed);
    assert_eq!(
        label_bits(&got.labels),
        label_bits(&labels(item, &want.executed))
    );
    assert_eq!(got.value.to_bits(), want.value.to_bits());
    assert_eq!(got.recall.to_bits(), want.recall.to_bits());
    assert_eq!(got.elapsed_ms, want.elapsed_ms);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every predictor, every budget mode: the memoized schedulers decide
    /// exactly as the per-step reference does — labeling outcome (labels
    /// with confidence bits, executed order, value and recall bits,
    /// elapsed time) and the public Algorithm 1 / Algorithm 2 results
    /// (trace, completed and cut-off lists).
    #[test]
    fn memoized_schedulers_equal_the_per_step_reference(
        item_idx in 0usize..24,
        ms in 0u64..6000,
        mem_mb in 0u32..20000,
        which in 0usize..6,
    ) {
        let f = fixture();
        let item = f.truth.item(item_idx);
        let p = f.predictors[which].as_ref();
        for budget in budgets(ms, mem_mb) {
            let want = reference(p, &f.zoo, item, budget);
            check_outcome(&f.sched.label_item_with(p, item, budget), &want, item);
        }
        let want = reference(p, &f.zoo, item, Budget::Deadline { ms });
        let got = schedule_deadline(p, &f.zoo, item, ms, THRESHOLD);
        prop_assert_eq!(&got.executed, &want.executed);
        prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
        prop_assert_eq!(got.recall.to_bits(), want.recall.to_bits());
        prop_assert_eq!(got.elapsed_ms, want.elapsed_ms);
        prop_assert_eq!(&got.trace.spans, &want.trace.spans);
        let want = reference(p, &f.zoo, item, Budget::DeadlineMemory { ms, mem_mb });
        let got = schedule_deadline_memory(p, &f.zoo, item, ms, mem_mb, THRESHOLD);
        prop_assert_eq!(&got.completed, &want.executed);
        prop_assert_eq!(&got.cut_off, &want.cut_off);
        prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
        prop_assert_eq!(got.recall.to_bits(), want.recall.to_bits());
        prop_assert_eq!(&got.trace.spans, &want.trace.spans);
        prop_assert_eq!(got.peak_mem_mb, want.trace.peak_mem_mb());
    }
}

/// A scheduler predicts once per distinct state it scores at: the empty
/// state, plus each non-empty state a run of models reaches while some
/// model is still a candidate. A model that recalls no new label costs no
/// prediction.
#[test]
fn predictions_per_item_equal_the_distinct_states_scored() {
    let f = fixture();
    let (mut calls, mut steps) = (0, 0);
    for p in &f.predictors {
        let counting = Counting::new(p.as_ref());
        for item in f.truth.items() {
            for budget in budgets(1000, 8192) {
                f.sched.label_item_with(&counting, item, budget);
                let want = reference(p.as_ref(), &f.zoo, item, budget);
                assert_eq!(want.scored_at.first().copied().unwrap_or(0), 0);
                assert_eq!(counting.take(), want.distinct_states(), "{budget:?}");
                calls += want.distinct_states();
                steps += want.scored_at.len();
            }
        }
    }
    // The fixture does revisit states: the saving is real.
    assert!(calls < steps, "{calls} predictions over {steps} steps");
}

/// A budget that fits no model makes no prediction at all: 0 ms under
/// either algorithm, and a memory cap below every model's footprint.
#[test]
fn a_budget_that_fits_no_model_predicts_nothing() {
    let f = fixture();
    let smallest = f.zoo.specs().iter().map(|s| s.mem_mb).min().unwrap();
    for p in &f.predictors {
        let counting = Counting::new(p.as_ref());
        for item in f.truth.items() {
            for budget in [
                Budget::Deadline { ms: 0 },
                Budget::DeadlineMemory {
                    ms: 0,
                    mem_mb: 16384,
                },
                Budget::DeadlineMemory {
                    ms: 5000,
                    mem_mb: smallest - 1,
                },
            ] {
                let out = f.sched.label_item_with(&counting, item, budget);
                assert!(out.executed.is_empty(), "{budget:?}");
                assert_eq!(counting.take(), 0, "{budget:?}");
            }
        }
    }
}
