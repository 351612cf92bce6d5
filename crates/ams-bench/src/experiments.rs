//! One function per paper experiment; `main.rs`'s `EXPERIMENTS` table is
//! the index the `ams-bench` runner picks from by name.
//!
//! The paper plots two kinds of curve, and each has one sweep here: Figs.
//! 4–6 put a required recall on the x axis (`recall_curves`), Figs. 10–12
//! a deadline (`deadline_curves`). A figure is a list of named policies
//! over one of them.

use crate::harness::{deadline_grid_s, memory_deadline_grid_s, recall_grid, Harness};
use ams::core::metrics::{mean, Cdf, Figure, Series};
use ams::core::policies::{
    aggregate_rollouts, no_policy_time_ms, optimal_rollout, predictor_greedy_rollout,
    random_packing_recall, random_rollout, run_serial,
};
use ams::core::scheduler::{optimal_star, QRow};
use ams::prelude::*;
use std::fmt::Write as _;
use std::io;

/// A named policy: the legend label and one item's run at one x — a
/// required recall ([`recall_curves`]) or a budget in ms
/// ([`deadline_curves`]).
type Policy<'a, X, Y> = (&'a str, Box<dyn Fn(&ItemTruth, X) -> Y + 'a>);

/// §II / Fig. 2 — time cost of no-policy vs random vs optimal to obtain all
/// valuable labels (average + CDF over a mixed corpus).
pub fn fig02_policy_gap(h: &mut Harness) -> io::Result<Figure> {
    let mut times_random = Vec::new();
    let mut times_optimal = Vec::new();
    let mut times_nopolicy = Vec::new();
    let no_policy_s = no_policy_time_ms(&h.zoo) as f64 / 1000.0;
    let threshold = h.cfg.threshold;

    for profile in DatasetProfile::PREDICTION_TRIO {
        for item in h.eval_items(profile) {
            times_nopolicy.push(no_policy_s);
            times_random
                .push(random_rollout(&item, &h.zoo, 1.0, threshold, 11).time_ms as f64 / 1000.0);
            times_optimal
                .push(optimal_rollout(&item, &h.zoo, 1.0, threshold).time_ms as f64 / 1000.0);
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# fig2 — per-image time to recall all valuable labels");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>14}",
        "policy", "avg s/img", "vs no-policy"
    );
    for (name, t) in [
        ("no policy", &times_nopolicy),
        ("random", &times_random),
        ("optimal", &times_optimal),
    ] {
        let m = mean(t);
        let _ = writeln!(
            out,
            "{name:<12} {m:>10.2} {:>13.1}%",
            m / no_policy_s * 100.0
        );
    }
    let _ = writeln!(out, "(paper: 5.16 / 4.64 / 1.14 s → 100% / 90% / 22.1%)");
    h.emit_text("fig2_summary", &out)?;

    let random = cdf_series("random", no_policy_s, times_random);
    let step = random.x.iter().map(|&x| f64::from(x >= no_policy_s - 1e-9));
    let series = vec![
        Series::new("no-policy", random.x.clone(), step.collect()),
        random,
        cdf_series("optimal", no_policy_s, times_optimal),
    ];
    h.figure(
        "fig2_cdf",
        "CDF of per-image time cost to full valuable-label recall",
        "time s",
        "CDF",
        series,
    )
}

/// Table I — the deployed zoo.
pub fn table1_zoo(h: &mut Harness) -> io::Result<String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# table1 — 10 visual analysis tasks, 30 models, 1104 labels"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>28}",
        "task", "labels", "models (time ms / mem MB)"
    );
    for task in Task::ALL {
        let models: Vec<String> = h
            .zoo
            .models_for(task)
            .map(|s| format!("{}/{}", s.time_ms, s.mem_mb))
            .collect();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>28}",
            task.name(),
            task.label_count(),
            models.join("  ")
        );
    }
    let _ = writeln!(
        out,
        "total zoo time: {:.2} s (paper: 5.16 s)",
        h.zoo.total_time_ms() as f64 / 1000.0
    );
    h.emit_text("table1_zoo", &out)?;
    Ok(out)
}

/// Figs. 4 & 5 — avg executed models / execution time vs required recall
/// rate, for the four DRL schemas plus random and optimal, on the three
/// prediction datasets. Returns `(fig4 figures, fig5 figures)`.
pub fn fig04_05_prediction(h: &mut Harness) -> io::Result<(Vec<Figure>, Vec<Figure>)> {
    let threshold = h.cfg.threshold;
    let mut fig4 = Vec::new();
    let mut fig5 = Vec::new();
    for profile in DatasetProfile::PREDICTION_TRIO {
        let items = h.eval_items(profile);
        let agents =
            Algo::ALL.map(|algo| (algo.name(), AgentPredictor::new(h.agent(profile, algo))));
        let zoo = &h.zoo;
        let mut policies: Vec<_> = agents
            .iter()
            .map(|(name, p)| greedy(name, zoo, p, threshold))
            .collect();
        policies.extend(recall_baselines(zoo, threshold, 5));
        let (models, time) = recall_curves(&items, &policies);

        let tag = profile.name().replace(' ', "_");
        let name = profile.name();
        let title = format!("avg executed models vs recall — {name}");
        fig4.push(h.figure(format!("fig4_{tag}"), title, "recall", "models", models)?);
        let title = format!("avg execution time vs recall — {name}");
        fig5.push(h.figure(format!("fig5_{tag}"), title, "recall", "seconds", time)?);
    }
    Ok((fig4, fig5))
}

/// Table II — the handcrafted rules.
pub fn table2_rules(h: &mut Harness) -> io::Result<String> {
    let book = RuleBook::table2(&h.catalog);
    let mut out = String::new();
    let _ = writeln!(out, "# table2 — handcrafted model execution rules");
    let _ = writeln!(
        out,
        "{:<24} {:<18} {:<28} {:>6}",
        "source task", "trigger", "target task", "mult"
    );
    for r in book.rules() {
        let trig = match &r.trigger {
            Trigger::Label(l) => h.catalog.name(*l).to_string(),
            Trigger::BodyKeypoints => "body keypoints".into(),
            Trigger::WristKeypoints => "wrist keypoints".into(),
            Trigger::IndoorPlace => "indoor places".into(),
        };
        let target = match r.tier_filter {
            Some(_) => format!("{} (specialist)", r.target_task.name()),
            None => r.target_task.name().to_string(),
        };
        let _ = writeln!(
            out,
            "{:<24} {:<18} {:<28} {:>6.1}",
            r.source_task.name(),
            trig,
            target,
            r.multiplier
        );
    }
    h.emit_text("table2_rules", &out)?;
    Ok(out)
}

/// Fig. 6 — rules vs DuelingDQN vs random vs optimal on MSCOCO.
pub fn fig06_rules_vs_agent(h: &mut Harness) -> io::Result<(Figure, Figure)> {
    let profile = DatasetProfile::Coco2017;
    let items = h.eval_items(profile);
    let predictor = AgentPredictor::new(h.agent(profile, Algo::DuelingDqn));
    let (zoo, catalog, threshold) = (&h.zoo, &h.catalog, h.cfg.threshold);
    let book = RuleBook::table2(catalog);
    let mut policies: Vec<Policy<'_, f64, Rollout>> = vec![
        (
            "Rule",
            Box::new(|it, tgt| rule_rollout(it, zoo, catalog, &book, tgt, threshold, 13)),
        ),
        greedy("DuelingDQN", zoo, &predictor, threshold),
    ];
    policies.extend(recall_baselines(zoo, threshold, 13));
    let (models, time) = recall_curves(&items, &policies);

    let title = "rules vs agent: avg executed models vs recall (MSCOCO)";
    let f_m = h.figure("fig6_models", title, "recall", "models", models)?;
    let title = "rules vs agent: avg execution time vs recall (MSCOCO)";
    let f_t = h.figure("fig6_time", title, "recall", "seconds", time)?;
    Ok((f_m, f_t))
}

/// Fig. 7 — a qualitative model-execution sequence for one item, scheduled
/// by the DuelingDQN agent's Q-greedy policy.
pub fn fig07_sequence(h: &mut Harness) -> io::Result<String> {
    let profile = DatasetProfile::MirFlickr25;
    let predictor = AgentPredictor::new(h.agent(profile, Algo::DuelingDqn));
    let items = h.eval_items(profile);
    let (zoo, catalog, threshold) = (&h.zoo, &h.catalog, h.cfg.threshold);

    // pick an item with a rich execution sequence (several valuable models)
    let item = items
        .iter()
        .max_by_key(|it| it.valuable_models(threshold).len())
        .expect("non-empty eval set");
    let rollout = predictor_greedy_rollout(item, zoo, &predictor, 1.0, threshold);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig7 — Q-greedy execution sequence (item {})",
        item.scene_id
    );
    let mut state = LabelSet::new(item.universe());
    for (i, &m) in rollout.executed.iter().enumerate() {
        let new: Vec<String> = item
            .output(m)
            .valuable(threshold)
            .filter(|d| !state.contains(d.label))
            .map(|d| format!("{} {:.3}", catalog.name(d.label), d.confidence))
            .collect();
        item.apply(&mut state, m, threshold);
        let rendered = if new.is_empty() {
            "(nothing new)".to_string()
        } else if new.len() > 4 {
            format!("{} … +{} more", new[..4].join(", "), new.len() - 4)
        } else {
            new.join(", ")
        };
        let _ = writeln!(out, "{:>2}. {:<24} -> {rendered}", i + 1, zoo.spec(m).name);
        if i >= 7 {
            let _ = writeln!(
                out,
                "    … ({} more executions)",
                rollout.executed.len() - i - 1
            );
            break;
        }
    }
    h.emit_text("fig7_sequence", &out)?;
    Ok(out)
}

/// Fig. 8 — transferability: agents trained on Stanford40 / VOC, tested on
/// both, Q-greedy to full recall; average time + CDFs.
pub fn fig08_transfer(h: &mut Harness) -> io::Result<Figure> {
    let d1 = DatasetProfile::Stanford40;
    let d2 = DatasetProfile::PascalVoc2012;
    let agent1 = AgentPredictor::new(h.agent(d1, Algo::DuelingDqn));
    let agent2 = AgentPredictor::new(h.agent(d2, Algo::DuelingDqn));
    let threshold = h.cfg.threshold;

    let mut out = String::new();
    let _ = writeln!(out, "# fig8 — transfer: avg time (s) to full recall");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "test set", "Agent1", "Agent2", "Random", "Optimal"
    );
    let mut cdf_curves = Vec::new();
    for (native, (name, profile)) in [("Dataset1", d1), ("Dataset2", d2)].into_iter().enumerate() {
        let items = h.eval_items(profile);
        let zoo = &h.zoo;
        let mut policies = vec![
            greedy("Agent1", zoo, &agent1, threshold),
            greedy("Agent2", zoo, &agent2, threshold),
        ];
        policies.extend(recall_baselines(zoo, threshold, 21));
        let t: Vec<f64> = policies
            .iter()
            .map(|(_, run)| aggregate_rollouts(items.iter(), |it| run(it, 1.0)).1)
            .collect();
        let _ = writeln!(
            out,
            "{name:<10} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            t[0], t[1], t[2], t[3]
        );

        // CDF of per-item times for the native agent on this set
        let run = &policies[native].1;
        let times = items.iter().map(|it| run(it, 1.0).time_ms as f64 / 1000.0);
        let label = format!("native-agent-on-{name}");
        cdf_curves.push(cdf_series(label, 5.2, times.collect()));
    }
    let _ = writeln!(
        out,
        "(paper: Agent1 1.94/2.63, Agent2 2.09/2.47, Random 4.12/4.04, Optimal 0.79/0.68)"
    );
    h.emit_text("fig8_transfer", &out)?;
    let title = "CDF of per-image time, native agents";
    h.figure("fig8_cdf", title, "time s", "CDF", cdf_curves)
}

/// Fig. 9 — the θ priority experiment on the face-detection flagship:
/// average execution position and average full-recall time vs θ.
///
/// The agents across θ values share one training seed so that the only
/// varying factor is θ itself.
pub fn fig09_theta(h: &mut Harness) -> io::Result<(Figure, Figure)> {
    let profile = DatasetProfile::Coco2017;
    let face_model = h
        .zoo
        .models_for(Task::FaceDetection)
        .next()
        .expect("face detector")
        .id;
    let thetas = [1.0f32, 2.0, 5.0, 10.0];
    let xs: Vec<f64> = thetas.iter().map(|&t| f64::from(t)).collect();
    let items = h.eval_items(profile);
    let train_items = h.train_items(profile);
    let (zoo, threshold) = (&h.zoo, h.cfg.threshold);

    let mut series_pos: Vec<Series> = Vec::new();
    let mut series_time: Vec<Series> = Vec::new();
    for algo in Algo::ALL {
        let mut pos = Vec::new();
        let mut time = Vec::new();
        for &theta in &thetas {
            let reward = RewardConfig {
                value_threshold: threshold,
                ..Default::default()
            }
            .with_theta(face_model, theta, zoo.len());
            let cfg = TrainConfig {
                episodes: h.cfg.episodes,
                seed: h.cfg.seed ^ 0xF19, // identical across θ: only θ varies
                reward,
                ..TrainConfig::new(algo)
            };
            let t0 = std::time::Instant::now();
            let (agent, _) = train(&train_items, zoo.len(), &cfg);
            eprintln!("[fig9] trained {algo} θ={theta} in {:.1?}", t0.elapsed());
            let predictor = AgentPredictor::new(agent);
            // Position of the prioritized model on items where its label
            // actually exists — the user-visible "delay until my preferred
            // label arrives". Items without a face would pin the position
            // at the tail regardless of θ and only dilute the measurement.
            let positions: Vec<f64> = items
                .iter()
                .filter(|it| it.model_value[face_model.index()] > 0.0)
                .map(|it| {
                    let r = predictor_greedy_rollout(it, zoo, &predictor, 1.0, threshold);
                    r.executed
                        .iter()
                        .position(|&m| m == face_model)
                        .map(|p| (p + 1) as f64)
                        .unwrap_or((zoo.len() + 1) as f64)
                })
                .collect();
            let (_, t) = aggregate_rollouts(items.iter(), |it| {
                predictor_greedy_rollout(it, zoo, &predictor, 1.0, threshold)
            });
            pos.push(mean(&positions));
            time.push(t);
        }
        series_pos.push(Series::new(algo.name(), xs.clone(), pos));
        series_time.push(Series::new(algo.name(), xs.clone(), time));
    }
    // random baseline: expected position of a fixed model = (n+1)/2
    let n = zoo.len() as f64;
    series_pos.push(Series::new(
        "Random",
        xs.clone(),
        vec![(n + 1.0) / 2.0; xs.len()],
    ));
    let (_, rt) = aggregate_rollouts(items.iter(), |it| {
        random_rollout(it, zoo, 1.0, threshold, 31)
    });
    series_time.push(Series::new("Random", xs.clone(), vec![rt; xs.len()]));

    let title = "avg execution order of the face-detection model vs θ";
    let f_pos = h.figure("fig9_order", title, "theta", "position", series_pos)?;
    let title = "avg full-recall execution time vs θ";
    let f_time = h.figure("fig9_time", title, "theta", "seconds", series_time)?;
    Ok((f_pos, f_time))
}

/// Fig. 10 — value recall under deadline constraints: Algorithm 1 (cost-Q
/// greedy) vs Q-greedy vs random vs optimal*, plus the performance-ratio
/// panel.
pub fn fig10_deadline(h: &mut Harness) -> io::Result<Vec<Figure>> {
    let grid = deadline_grid_s();
    let threshold = h.cfg.threshold;
    let mut figures = Vec::new();
    let mut ratios = Vec::new();
    for profile in DatasetProfile::PREDICTION_TRIO {
        let predictor = AgentPredictor::new(h.agent(profile, Algo::DuelingDqn));
        let items = h.eval_items(profile);
        let zoo = &h.zoo;
        let q_greedy =
            |it: &ItemTruth, b| q_greedy_deadline_recall(&predictor, zoo, it, b, threshold);
        let mut policies: Vec<Policy<'_, u64, f64>> = vec![
            ("Q Greedy", Box::new(q_greedy)),
            algorithm1("Cost-Q Greedy", zoo, &predictor, threshold),
        ];
        policies.extend(deadline_baselines(zoo, threshold, 17));
        let curves = deadline_curves(&items, &grid, &policies);
        ratios.push(ratio_to_star(profile.name(), &curves[1], &curves[3]));

        let id = format!("fig10_{}", profile.name().replace(' ', "_"));
        let title = format!("value recall vs deadline — {}", profile.name());
        figures.push(h.figure(id, title, "deadline s", "recall", curves)?);
    }
    let title = "Algorithm 1 / optimal* performance ratio";
    figures.push(ratio_figure(h, "fig10_ratio", title, &grid, ratios)?);
    Ok(figures)
}

/// Fig. 11 — recall under deadline + memory constraints (Algorithm 2 vs
/// random packing vs optimal*), and the ratio panel.
pub fn fig11_memory(h: &mut Harness) -> io::Result<Vec<Figure>> {
    // The paper's worst case: Agent1 (Stanford40) evaluated on Dataset2.
    let predictor = AgentPredictor::new(h.agent(DatasetProfile::Stanford40, Algo::DuelingDqn));
    let items = h.eval_items(DatasetProfile::PascalVoc2012);
    let (zoo, threshold) = (&h.zoo, h.cfg.threshold);
    let grid = memory_deadline_grid_s();
    let mut figures = Vec::new();
    let mut ratios = Vec::new();
    for (mem_mb, mem_name) in [(8192u32, "8GB"), (12288, "12GB"), (16384, "16GB")] {
        let policies: [Policy<'_, u64, f64>; 3] = [
            (
                "Agent",
                Box::new(|it, b| {
                    schedule_deadline_memory(&predictor, zoo, it, b, mem_mb, threshold).recall
                }),
            ),
            (
                "Random",
                Box::new(|it, b| {
                    let seed = 23 ^ it.scene_id.wrapping_mul(0x9E37_79B9);
                    random_packing_recall(it, zoo, b, mem_mb, threshold, seed)
                }),
            ),
            (
                "Optimal*",
                Box::new(|it, b| {
                    optimal_star::recall::deadline_memory(zoo, it, b, mem_mb, threshold)
                }),
            ),
        ];
        let curves = deadline_curves(&items, &grid, &policies);
        let label = format!("{mem_name} Mem");
        ratios.push(ratio_to_star(label, &curves[0], &curves[2]));
        let id = format!("fig11_{mem_name}");
        let title = format!("recall vs deadline under {mem_name} memory");
        figures.push(h.figure(id, title, "deadline s", "recall", curves)?);
    }
    let title = "Algorithm 2 / optimal* performance ratio";
    figures.push(ratio_figure(h, "fig11_ratio", title, &grid, ratios)?);
    Ok(figures)
}

/// Fig. 12 — transfer agents under deadline constraints (Algorithm 1).
pub fn fig12_transfer_deadline(h: &mut Harness) -> io::Result<Vec<Figure>> {
    let d1 = DatasetProfile::Stanford40;
    let d2 = DatasetProfile::PascalVoc2012;
    let agent1 = AgentPredictor::new(h.agent(d1, Algo::DuelingDqn));
    let agent2 = AgentPredictor::new(h.agent(d2, Algo::DuelingDqn));
    let threshold = h.cfg.threshold;
    let grid = deadline_grid_s();
    let mut figures = Vec::new();
    for (name, profile) in [("Dataset1", d1), ("Dataset2", d2)] {
        let items = h.eval_items(profile);
        let zoo = &h.zoo;
        let mut policies = vec![
            algorithm1("Agent1", zoo, &agent1, threshold),
            algorithm1("Agent2", zoo, &agent2, threshold),
        ];
        policies.extend(deadline_baselines(zoo, threshold, 29));
        let curves = deadline_curves(&items, &grid, &policies);
        let (id, title) = (
            format!("fig12_{name}"),
            format!("transfer agents under deadline — {name}"),
        );
        figures.push(h.figure(id, title, "deadline s", "recall", curves)?);
    }
    Ok(figures)
}

/// Table III — scheduling overhead: per-decision agent time and memory vs
/// the simulated model costs.
pub fn table3_overhead(h: &mut Harness) -> io::Result<String> {
    let agent = h.agent(DatasetProfile::Coco2017, Algo::DuelingDqn);
    let params = agent.net.param_count();
    let predictor = AgentPredictor::new(agent);
    let items = h.eval_items(DatasetProfile::Coco2017);
    // time per decision: the Q evaluation the scheduler makes (the served
    // inference kernel) on a populated state
    let mut per_decision_us = 0.0;
    if let Some(item) = items.first() {
        let mut state = LabelSet::new(item.universe());
        for m in 0..10 {
            item.apply(&mut state, ModelId(m), h.cfg.threshold);
        }
        let mut q = vec![0.0; predictor.num_models()];
        let reps = 2000;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            predictor.predict_into(&state, item, &mut q);
            std::hint::black_box(&mut q);
        }
        per_decision_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    }

    let agent_mb = params as f64 * 4.0 / (1024.0 * 1024.0);
    let (min_t, max_t) = h.zoo.specs().iter().fold((u32::MAX, 0), |(lo, hi), s| {
        (lo.min(s.time_ms), hi.max(s.time_ms))
    });
    let (min_m, max_m) = h.zoo.specs().iter().fold((u32::MAX, 0), |(lo, hi), s| {
        (lo.min(s.mem_mb), hi.max(s.mem_mb))
    });

    let mut out = String::new();
    let _ = writeln!(out, "# table3 — scheduling overhead");
    let _ = writeln!(
        out,
        "{:<22} {:>18} {:>22}",
        "", "DRL agent", "deep learning model"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>15.1} us {:>15}-{} ms",
        "time per decision/exec", per_decision_us, min_t, max_t
    );
    let _ = writeln!(
        out,
        "{:<22} {:>15.2} MB {:>15}-{} MB",
        "memory", agent_mb, min_m, max_m
    );
    let _ = writeln!(
        out,
        "({params} parameters; paper: 3-6 ms per decision, ~100 MB agent)"
    );
    h.emit_text("table3_overhead", &out)?;
    Ok(out)
}

/// §I ablation — explore–exploit on correlated chunked streams.
pub fn ablation_chunked(h: &mut Harness) -> io::Result<String> {
    let zoo = &h.zoo;
    let chunks = chunked::chunked_stream(zoo, 40, 7, h.cfg.seed, h.cfg.threshold);
    let cfg = ChunkedConfig::default();
    let (time, recall, no_policy) = chunked::run_stream(&chunks, zoo, &cfg);
    let mut out = String::new();
    let _ = writeln!(out, "# ablation — explore-exploit on chunked streams");
    let _ = writeln!(
        out,
        "chunks: {} x {} items (one scene template each)",
        chunks.len(),
        chunks[0].len()
    );
    let _ = writeln!(out, "no-policy time  : {:.1} s", no_policy as f64 / 1000.0);
    let _ = writeln!(
        out,
        "explore-exploit : {:.1} s ({:.1}% saved)",
        time as f64 / 1000.0,
        (1.0 - time as f64 / no_policy as f64) * 100.0
    );
    let _ = writeln!(out, "mean recall     : {:.3}", recall);
    h.emit_text("ablation_chunked", &out)?;
    Ok(out)
}

/// Reward-design ablation: END action on/off and the three smoothings
/// (§IV-A/§IV-B design choices).
pub fn ablation_reward(h: &mut Harness) -> io::Result<String> {
    let profile = DatasetProfile::Coco2017;
    let train_items = h.train_items(profile);
    let items = h.eval_items(profile);
    let (zoo, threshold) = (&h.zoo, h.cfg.threshold);
    let episodes = h.cfg.episodes_small;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ablation — reward design (DQN, {} episodes)",
        episodes
    );
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12} {:>14} {:>14}",
        "variant", "models@0.8", "time@0.8 s", "trail reward", "late ep len"
    );

    let variants = [
        ("log smoothing + END", true, Smoothing::Log),
        ("no END action", false, Smoothing::Log),
        ("mean smoothing", true, Smoothing::Mean),
        ("raw sum (biased)", true, Smoothing::Sum),
    ];
    for (name, use_end_action, smoothing) in variants {
        let cfg = TrainConfig {
            episodes,
            use_end_action,
            reward: RewardConfig {
                smoothing,
                ..Default::default()
            },
            ..TrainConfig::new(Algo::Dqn)
        };
        let (agent, stats) = train(&train_items, zoo.len(), &cfg);
        let predictor = AgentPredictor::new(agent);
        let (m, t) = aggregate_rollouts(items.iter(), |it| {
            predictor_greedy_rollout(it, zoo, &predictor, 0.8, threshold)
        });
        // convergence evidence: late-training reward and episode length
        // (the END action exists to let episodes stop instead of farming -1s);
        // at least one episode, so fewer than four do not divide by zero
        let tail = (stats.episode_lengths.len() / 4).max(1);
        let late_len: f64 = stats.episode_lengths[stats.episode_lengths.len() - tail..]
            .iter()
            .map(|&l| l as f64)
            .sum::<f64>()
            / tail as f64;
        let _ = writeln!(
            out,
            "{name:<26} {m:>12.2} {t:>12.2} {:>14.2} {late_len:>14.1}",
            stats.trailing_reward(tail)
        );
    }
    let (rm, rt) = aggregate_rollouts(items.iter(), |it| {
        random_rollout(it, zoo, 0.8, threshold, 5)
    });
    let _ = writeln!(
        out,
        "{:<26} {rm:>12.2} {rt:>12.2} {:>14} {:>14}",
        "random baseline", "-", "-"
    );
    h.emit_text("ablation_reward", &out)?;
    Ok(out)
}

/// Relation-graph comparator (§VIII future work): graph predictor vs rules
/// vs agent at 0.8 recall.
pub fn ablation_graph(h: &mut Harness) -> io::Result<String> {
    let profile = DatasetProfile::Coco2017;
    let train_items = h.train_items(profile);
    let items = h.eval_items(profile);
    let agent = AgentPredictor::new(h.agent(profile, Algo::DuelingDqn));
    let (zoo, catalog, threshold) = (&h.zoo, &h.catalog, h.cfg.threshold);
    let graph = ModelRelationGraph::build(&train_items, zoo.len(), catalog.len(), threshold);
    let gp = GraphPredictor::new(graph);
    let book = RuleBook::table2(catalog);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ablation — relation-graph predictor vs baselines (recall 0.8)"
    );
    let _ = writeln!(out, "{:<18} {:>12} {:>12}", "policy", "models", "time s");
    let mut rows = vec![
        greedy("relation-graph", zoo, &gp, threshold),
        greedy("dueling-dqn", zoo, &agent, threshold),
        (
            "rules",
            Box::new(|it, tgt| rule_rollout(it, zoo, catalog, &book, tgt, threshold, 13)),
        ),
    ];
    let [random, optimal] = recall_baselines(zoo, threshold, 13);
    rows.extend([("random", random.1), ("optimal", optimal.1)]);
    for (name, run) in &rows {
        let (m, t) = aggregate_rollouts(items.iter(), |it| run(it, 0.8));
        let _ = writeln!(out, "{name:<18} {m:>12.2} {t:>12.2}");
    }
    h.emit_text("ablation_graph", &out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// Figs. 4–6's sweep: every policy's mean executed models and mean seconds
/// over `items` at each `recall_grid()` target, as `(models, time)` series
/// in policy order.
fn recall_curves(
    items: &[ItemTruth],
    policies: &[Policy<'_, f64, Rollout>],
) -> (Vec<Series>, Vec<Series>) {
    let grid = recall_grid();
    policies
        .iter()
        .map(|(name, run)| {
            let (models, time): (Vec<f64>, Vec<f64>) = grid
                .iter()
                .map(|&target| aggregate_rollouts(items.iter(), |it| run(it, target)))
                .unzip();
            (
                Series::new(*name, grid.clone(), models),
                Series::new(*name, grid.clone(), time),
            )
        })
        .unzip()
}

/// Q-greedy to a recall target under `predictor` (the agents of Figs. 4–6).
fn greedy<'a>(
    name: &'a str,
    zoo: &'a ModelZoo,
    predictor: &'a dyn ValuePredictor,
    threshold: f32,
) -> Policy<'a, f64, Rollout> {
    let run =
        move |it: &ItemTruth, tgt| predictor_greedy_rollout(it, zoo, predictor, tgt, threshold);
    (name, Box::new(run))
}

/// The random and optimal rollouts every recall figure ends with.
fn recall_baselines(zoo: &ModelZoo, threshold: f32, seed: u64) -> [Policy<'_, f64, Rollout>; 2] {
    let random = move |it: &ItemTruth, tgt| random_rollout(it, zoo, tgt, threshold, seed);
    let optimal = move |it: &ItemTruth, tgt| optimal_rollout(it, zoo, tgt, threshold);
    [("Random", Box::new(random)), ("Optimal", Box::new(optimal))]
}

/// Figs. 10–12's sweep: every policy's mean recall over `items` at each
/// deadline of `grid_s` (seconds, truncated to whole ms), one series per
/// policy. Each mean sums the items in order.
fn deadline_curves(
    items: &[ItemTruth],
    grid_s: &[f64],
    policies: &[Policy<'_, u64, f64>],
) -> Vec<Series> {
    let n = items.len() as f64;
    policies
        .iter()
        .map(|(name, recall)| {
            let ys = grid_s.iter().map(|&dl| {
                let budget_ms = (dl * 1000.0) as u64;
                items
                    .iter()
                    .fold(0.0, |sum, it| sum + recall(it, budget_ms))
                    / n
            });
            Series::new(*name, grid_s.to_vec(), ys.collect())
        })
        .collect()
}

/// Algorithm 1 (cost-Q greedy) under `predictor` (Figs. 10 and 12).
fn algorithm1<'a>(
    name: &'a str,
    zoo: &'a ModelZoo,
    predictor: &'a dyn ValuePredictor,
    threshold: f32,
) -> Policy<'a, u64, f64> {
    let run = move |it: &ItemTruth, b| schedule_deadline(predictor, zoo, it, b, threshold).recall;
    (name, Box::new(run))
}

/// The random and optimal* recalls Figs. 10 and 12 end with.
fn deadline_baselines(zoo: &ModelZoo, threshold: f32, seed: u64) -> [Policy<'_, u64, f64>; 2] {
    let random = move |it: &ItemTruth, b| random_deadline_recall(zoo, it, b, threshold, seed);
    let star = move |it: &ItemTruth, b| optimal_star::recall::deadline(zoo, it, b, threshold);
    [("Random", Box::new(random)), ("Optimal*", Box::new(star))]
}

/// One curve of a ratio panel: `a / optimal*` per deadline, 1 where
/// optimal* recalls nothing.
fn ratio_to_star(label: impl Into<String>, a: &Series, star: &Series) -> Series {
    let ys = a.y.iter().zip(&star.y);
    let ratio = ys.map(|(a, s)| if *s > 0.0 { a / s } else { 1.0 });
    Series::new(label, a.x.clone(), ratio.collect())
}

/// Figs. 10–11's ratio panel: the `a / optimal*` curves plus the 1 − 1/e
/// line the greedy guarantee promises.
fn ratio_figure(
    h: &Harness,
    id: &str,
    title: &str,
    grid: &[f64],
    mut ratios: Vec<Series>,
) -> io::Result<Figure> {
    let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
    ratios.push(Series::new(
        "1-1/e",
        grid.to_vec(),
        vec![one_minus_inv_e; grid.len()],
    ));
    h.figure(id, title, "deadline s", "ratio", ratios)
}

/// Figs. 2 and 8's CDF curves: the CDF of `times` sampled at 21 even steps
/// over `[0, max_s]`.
fn cdf_series(label: impl Into<String>, max_s: f64, times: Vec<f64>) -> Series {
    let cdf = Cdf::new(times);
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 * max_s / 20.0).collect();
    let ys = xs.iter().map(|&x| cdf.at(x)).collect();
    Series::new(label, xs, ys)
}

/// Q-greedy under a deadline: execute the max-Q unexecuted model that still
/// fits (the paper's "Q Greedy" baseline of Fig. 10, which ignores cost).
fn q_greedy_deadline_recall(
    predictor: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    threshold: f32,
) -> f64 {
    let mut row = QRow::new(zoo.len());
    run_serial(
        item,
        zoo,
        budget_ms,
        threshold,
        |state, mask, remaining, _| {
            let q = row.at(predictor, state, item);
            let mut best: Option<(usize, f32)> = None;
            for (m, &v) in q.iter().enumerate() {
                let fits = u64::from(zoo.spec(ModelId(m as u8)).time_ms) <= remaining;
                if mask >> m & 1 == 0 && fits && best.map(|(_, bv)| v > bv).unwrap_or(true) {
                    best = Some((m, v));
                }
            }
            best.map(|(m, _)| ModelId(m as u8))
        },
    )
    .recall
}

/// Random policy under a deadline: random order, skipping models that no
/// longer fit.
fn random_deadline_recall(
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    threshold: f32,
    seed: u64,
) -> f64 {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<ModelId> = zoo.ids().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ item.scene_id.wrapping_mul(0x2545_F491));
    order.shuffle(&mut rng);
    let mut order = order.into_iter();
    run_serial(item, zoo, budget_ms, threshold, |_, _, remaining, _| {
        order.find(|&m| u64::from(zoo.spec(m).time_ms) <= remaining)
    })
    .recall
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use std::path::PathBuf;

    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    }

    fn fold_str(h: u64, s: &str) -> u64 {
        s.bytes()
            .fold(mix(h, s.len() as u64), |h, b| mix(h, u64::from(b)))
    }

    fn fold_fig(h: u64, f: &Figure) -> u64 {
        let h = [&f.id, &f.title, &f.x_label, &f.y_label]
            .into_iter()
            .fold(mix(h, f.series.len() as u64), |h, s| fold_str(h, s));
        f.series.iter().fold(h, |h, s| {
            let h = mix(fold_str(h, &s.label), s.x.len() as u64);
            s.x.iter().chain(&s.y).fold(h, |h, v| mix(h, v.to_bits()))
        })
    }

    /// A config small enough that every experiment runs in seconds in a
    /// debug build, writing under `target/<dir>`.
    fn tiny(dir: &str) -> ExperimentConfig {
        ExperimentConfig {
            items: 20,
            episodes: 6,
            episodes_small: 4,
            eval_items: 6,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../target")
                .join(dir),
            ..ExperimentConfig::smoke()
        }
    }

    /// Pins every experiment: an FNV-1a fold over what each of the 15
    /// returns (ids, titles, axis and series labels, and the bits of every
    /// point), in runner order on one harness, skipping table3's
    /// wall-clock "time per decision" row. Recorded before the figures
    /// became policy lists over one sweep per axis; any change to a policy,
    /// a seed, a series order or an accumulation order moves it.
    #[test]
    fn golden_digest() -> io::Result<()> {
        let mut h = Harness::new(tiny("experiments-golden"));
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        d = fold_str(d, &table1_zoo(&mut h)?);
        d = fold_fig(d, &fig02_policy_gap(&mut h)?);
        let (fig4, fig5) = fig04_05_prediction(&mut h)?;
        d = fig4.iter().chain(&fig5).fold(d, fold_fig);
        d = fold_str(d, &table2_rules(&mut h)?);
        let (a, b) = fig06_rules_vs_agent(&mut h)?;
        d = fold_fig(fold_fig(d, &a), &b);
        d = fold_str(d, &fig07_sequence(&mut h)?);
        d = fold_fig(d, &fig08_transfer(&mut h)?);
        let (a, b) = fig09_theta(&mut h)?;
        d = fold_fig(fold_fig(d, &a), &b);
        d = fig10_deadline(&mut h)?.iter().fold(d, fold_fig);
        d = fig11_memory(&mut h)?.iter().fold(d, fold_fig);
        d = fig12_transfer_deadline(&mut h)?.iter().fold(d, fold_fig);
        let table3 = table3_overhead(&mut h)?;
        d = table3
            .lines()
            .filter(|l| !l.starts_with("time per decision"))
            .fold(d, fold_str);
        d = fold_str(d, &ablation_chunked(&mut h)?);
        d = fold_str(d, &ablation_reward(&mut h)?);
        d = fold_str(d, &ablation_graph(&mut h)?);
        assert_eq!(d, 0xc1dd_ad8f_e247_58ee, "experiments digest {d:#018x}");
        Ok(())
    }

    /// `episodes_small` is public: at three episodes the late-training
    /// window still holds one episode instead of dividing by zero.
    #[test]
    fn ablation_reward_under_four_episodes_prints_numbers() -> io::Result<()> {
        let cfg = ExperimentConfig {
            episodes_small: 3,
            ..tiny("experiments-three-episodes")
        };
        let out = ablation_reward(&mut Harness::new(cfg))?;
        assert!(!out.contains("NaN"), "{out}");
        Ok(())
    }
}
