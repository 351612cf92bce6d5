//! One function per paper experiment; `main.rs`'s `EXPERIMENTS` table is
//! the index the `ams-bench` runner picks from by name.

use crate::harness::{deadline_grid_s, memory_deadline_grid_s, recall_grid, Harness};
use ams::core::metrics::{mean, Cdf, Figure, Series};
use ams::core::policies::{
    aggregate_rollouts, no_policy_time_ms, optimal_rollout, predictor_greedy_rollout,
    random_packing_recall, random_rollout, run_serial,
};
use ams::core::scheduler::optimal_star;
use ams::prelude::*;
use std::fmt::Write as _;

/// §II / Fig. 2 — time cost of no-policy vs random vs optimal to obtain all
/// valuable labels (average + CDF over a mixed corpus).
pub fn fig02_policy_gap(h: &mut Harness) -> Figure {
    let mut times_random = Vec::new();
    let mut times_optimal = Vec::new();
    let mut times_nopolicy = Vec::new();
    let no_policy_s = no_policy_time_ms(&h.zoo) as f64 / 1000.0;
    let threshold = h.cfg.threshold;

    for profile in DatasetProfile::PREDICTION_TRIO {
        let zoo = h.zoo.clone();
        for item in h.eval_items(profile) {
            times_nopolicy.push(no_policy_s);
            times_random
                .push(random_rollout(&item, &zoo, 1.0, threshold, 11).time_ms as f64 / 1000.0);
            times_optimal
                .push(optimal_rollout(&item, &zoo, 1.0, threshold).time_ms as f64 / 1000.0);
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
    h.emit_text("fig2_summary", &out);

    // CDF curves sampled on a common grid.
    let cdf_r = Cdf::new(times_random.clone());
    let cdf_o = Cdf::new(times_optimal.clone());
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 * no_policy_s / 20.0).collect();
    let fig = Figure {
        id: "fig2_cdf".into(),
        title: "CDF of per-image time cost to full valuable-label recall".into(),
        x_label: "time s".into(),
        y_label: "CDF".into(),
        series: vec![
            Series::new(
                "no-policy",
                xs.clone(),
                xs.iter()
                    .map(|&x| f64::from(x >= no_policy_s - 1e-9))
                    .collect(),
            ),
            Series::new(
                "random",
                xs.clone(),
                xs.iter().map(|&x| cdf_r.at(x)).collect(),
            ),
            Series::new(
                "optimal",
                xs.clone(),
                xs.iter().map(|&x| cdf_o.at(x)).collect(),
            ),
        ],
    };
    h.emit(&fig);
    fig
}

/// Table I — the deployed zoo.
pub fn table1_zoo(h: &mut Harness) -> String {
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
    h.emit_text("table1_zoo", &out);
    out
}

/// Figs. 4 & 5 — avg executed models / execution time vs required recall
/// rate, for the four DRL schemas plus random and optimal, on the three
/// prediction datasets. Returns `(fig4 figures, fig5 figures)`.
pub fn fig04_05_prediction(h: &mut Harness) -> (Vec<Figure>, Vec<Figure>) {
    let grid = recall_grid();
    let mut fig4 = Vec::new();
    let mut fig5 = Vec::new();
    let threshold = h.cfg.threshold;

    for profile in DatasetProfile::PREDICTION_TRIO {
        let items = h.eval_items(profile);
        let zoo = h.zoo.clone();
        let mut series_models: Vec<Series> = Vec::new();
        let mut series_time: Vec<Series> = Vec::new();

        for algo in Algo::ALL {
            let agent = h.agent(profile, algo);
            let predictor = AgentPredictor::new(agent);
            let mut ys_m = Vec::new();
            let mut ys_t = Vec::new();
            for &target in &grid {
                let (m, t) = aggregate_rollouts(items.iter(), |it| {
                    predictor_greedy_rollout(it, &zoo, &predictor, target, threshold)
                });
                ys_m.push(m);
                ys_t.push(t);
            }
            series_models.push(Series::new(algo.name(), grid.clone(), ys_m));
            series_time.push(Series::new(algo.name(), grid.clone(), ys_t));
        }

        type Runner<'a> = Box<dyn Fn(&ItemTruth, f64) -> Rollout + 'a>;
        let baselines: Vec<(&str, Runner<'_>)> = vec![
            (
                "Random",
                Box::new(|it: &ItemTruth, tgt: f64| random_rollout(it, &zoo, tgt, threshold, 5)),
            ),
            (
                "Optimal",
                Box::new(|it: &ItemTruth, tgt: f64| optimal_rollout(it, &zoo, tgt, threshold)),
            ),
        ];
        for (name, f) in baselines {
            let mut ys_m = Vec::new();
            let mut ys_t = Vec::new();
            for &target in &grid {
                let (m, t) = aggregate_rollouts(items.iter(), |it| f(it, target));
                ys_m.push(m);
                ys_t.push(t);
            }
            series_models.push(Series::new(name, grid.clone(), ys_m));
            series_time.push(Series::new(name, grid.clone(), ys_t));
        }

        let tag = profile.name().replace(' ', "_");
        let f4 = Figure {
            id: format!("fig4_{tag}"),
            title: format!("avg executed models vs recall — {}", profile.name()),
            x_label: "recall".into(),
            y_label: "models".into(),
            series: series_models,
        };
        let f5 = Figure {
            id: format!("fig5_{tag}"),
            title: format!("avg execution time vs recall — {}", profile.name()),
            x_label: "recall".into(),
            y_label: "seconds".into(),
            series: series_time,
        };
        h.emit(&f4);
        h.emit(&f5);
        fig4.push(f4);
        fig5.push(f5);
    }
    (fig4, fig5)
}

/// Table II — the handcrafted rules.
pub fn table2_rules(h: &mut Harness) -> String {
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
    h.emit_text("table2_rules", &out);
    out
}

/// Fig. 6 — rules vs DuelingDQN vs random vs optimal on MSCOCO.
pub fn fig06_rules_vs_agent(h: &mut Harness) -> (Figure, Figure) {
    let profile = DatasetProfile::Coco2017;
    let grid = recall_grid();
    let items = h.eval_items(profile);
    let zoo = h.zoo.clone();
    let catalog = h.catalog.clone();
    let threshold = h.cfg.threshold;
    let book = RuleBook::table2(&catalog);
    let agent = h.agent(profile, Algo::DuelingDqn);
    let predictor = AgentPredictor::new(agent);

    type TargetRunner<'a> = Box<dyn Fn(&ItemTruth, f64) -> Rollout + 'a>;
    let mut series_m: Vec<Series> = Vec::new();
    let mut series_t: Vec<Series> = Vec::new();
    let runners: Vec<(&str, TargetRunner<'_>)> = vec![
        (
            "Rule",
            Box::new(|it, tgt| rule_rollout(it, &zoo, &catalog, &book, tgt, threshold, 13)),
        ),
        (
            "DuelingDQN",
            Box::new(|it, tgt| predictor_greedy_rollout(it, &zoo, &predictor, tgt, threshold)),
        ),
        (
            "Random",
            Box::new(|it, tgt| random_rollout(it, &zoo, tgt, threshold, 13)),
        ),
        (
            "Optimal",
            Box::new(|it, tgt| optimal_rollout(it, &zoo, tgt, threshold)),
        ),
    ];
    for (name, f) in &runners {
        let mut ys_m = Vec::new();
        let mut ys_t = Vec::new();
        for &target in &grid {
            let (m, t) = aggregate_rollouts(items.iter(), |it| f(it, target));
            ys_m.push(m);
            ys_t.push(t);
        }
        series_m.push(Series::new(*name, grid.clone(), ys_m));
        series_t.push(Series::new(*name, grid.clone(), ys_t));
    }

    let f_m = Figure {
        id: "fig6_models".into(),
        title: "rules vs agent: avg executed models vs recall (MSCOCO)".into(),
        x_label: "recall".into(),
        y_label: "models".into(),
        series: series_m,
    };
    let f_t = Figure {
        id: "fig6_time".into(),
        title: "rules vs agent: avg execution time vs recall (MSCOCO)".into(),
        x_label: "recall".into(),
        y_label: "seconds".into(),
        series: series_t,
    };
    h.emit(&f_m);
    h.emit(&f_t);
    (f_m, f_t)
}

/// Fig. 7 — a qualitative model-execution sequence for one item, scheduled
/// by the DuelingDQN agent's Q-greedy policy.
pub fn fig07_sequence(h: &mut Harness) -> String {
    let profile = DatasetProfile::MirFlickr25;
    let agent = h.agent(profile, Algo::DuelingDqn);
    let items = h.eval_items(profile);
    let zoo = h.zoo.clone();
    let catalog = h.catalog.clone();
    let threshold = h.cfg.threshold;

    // pick an item with a rich execution sequence (several valuable models)
    let item = items
        .iter()
        .max_by_key(|it| it.valuable_models(threshold).len())
        .expect("non-empty eval set");
    let predictor = AgentPredictor::new(agent);
    let rollout = predictor_greedy_rollout(item, &zoo, &predictor, 1.0, threshold);

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
    h.emit_text("fig7_sequence", &out);
    out
}

/// Fig. 8 — transferability: agents trained on Stanford40 / VOC, tested on
/// both, Q-greedy to full recall; average time + CDFs.
pub fn fig08_transfer(h: &mut Harness) -> Figure {
    let d1 = DatasetProfile::Stanford40;
    let d2 = DatasetProfile::PascalVoc2012;
    let agent1 = AgentPredictor::new(h.agent(d1, Algo::DuelingDqn));
    let agent2 = AgentPredictor::new(h.agent(d2, Algo::DuelingDqn));
    let zoo = h.zoo.clone();
    let threshold = h.cfg.threshold;

    let mut out = String::new();
    let _ = writeln!(out, "# fig8 — transfer: avg time (s) to full recall");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "test set", "Agent1", "Agent2", "Random", "Optimal"
    );
    let mut cdf_series = Vec::new();
    for (name, profile) in [("Dataset1", d1), ("Dataset2", d2)] {
        let items = h.eval_items(profile);
        let (_, t1) = aggregate_rollouts(items.iter(), |it| {
            predictor_greedy_rollout(it, &zoo, &agent1, 1.0, threshold)
        });
        let (_, t2) = aggregate_rollouts(items.iter(), |it| {
            predictor_greedy_rollout(it, &zoo, &agent2, 1.0, threshold)
        });
        let (_, tr) = aggregate_rollouts(items.iter(), |it| {
            random_rollout(it, &zoo, 1.0, threshold, 21)
        });
        let (_, to) =
            aggregate_rollouts(items.iter(), |it| optimal_rollout(it, &zoo, 1.0, threshold));
        let _ = writeln!(out, "{name:<10} {t1:>8.2} {t2:>8.2} {tr:>8.2} {to:>8.2}");

        // CDF of per-item times for the native agent on this set
        let times: Vec<f64> = items
            .iter()
            .map(|it| {
                let a: &AgentPredictor = if profile == d1 { &agent1 } else { &agent2 };
                predictor_greedy_rollout(it, &zoo, a, 1.0, threshold).time_ms as f64 / 1000.0
            })
            .collect();
        let cdf = Cdf::new(times);
        let xs: Vec<f64> = (0..=20).map(|i| i as f64 * 5.2 / 20.0).collect();
        cdf_series.push(Series::new(
            format!("native-agent-on-{name}"),
            xs.clone(),
            xs.iter().map(|&x| cdf.at(x)).collect(),
        ));
    }
    let _ = writeln!(
        out,
        "(paper: Agent1 1.94/2.63, Agent2 2.09/2.47, Random 4.12/4.04, Optimal 0.79/0.68)"
    );
    h.emit_text("fig8_transfer", &out);
    let fig = Figure {
        id: "fig8_cdf".into(),
        title: "CDF of per-image time, native agents".into(),
        x_label: "time s".into(),
        y_label: "CDF".into(),
        series: cdf_series,
    };
    h.emit(&fig);
    fig
}

/// Fig. 9 — the θ priority experiment on the face-detection flagship:
/// average execution position and average full-recall time vs θ.
///
/// The agents across θ values share one training seed so that the only
/// varying factor is θ itself.
pub fn fig09_theta(h: &mut Harness) -> (Figure, Figure) {
    let profile = DatasetProfile::Coco2017;
    let face_model = h
        .zoo
        .models_for(Task::FaceDetection)
        .next()
        .expect("face detector")
        .id;
    let thetas = [1.0f32, 2.0, 5.0, 10.0];
    let zoo = h.zoo.clone();
    let threshold = h.cfg.threshold;
    let items = h.eval_items(profile);
    let episodes = h.cfg.episodes;
    let train_items = h.train_items(profile);

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
                episodes,
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
                    let r = predictor_greedy_rollout(it, &zoo, &predictor, 1.0, threshold);
                    r.executed
                        .iter()
                        .position(|&m| m == face_model)
                        .map(|p| (p + 1) as f64)
                        .unwrap_or((zoo.len() + 1) as f64)
                })
                .collect();
            let (_, t) = aggregate_rollouts(items.iter(), |it| {
                predictor_greedy_rollout(it, &zoo, &predictor, 1.0, threshold)
            });
            pos.push(mean(&positions));
            time.push(t);
        }
        series_pos.push(Series::new(
            algo.name(),
            thetas.iter().map(|&t| f64::from(t)).collect(),
            pos,
        ));
        series_time.push(Series::new(
            algo.name(),
            thetas.iter().map(|&t| f64::from(t)).collect(),
            time,
        ));
    }
    // random baseline: expected position of a fixed model = (n+1)/2
    let n = zoo.len() as f64;
    series_pos.push(Series::new(
        "Random",
        thetas.iter().map(|&t| f64::from(t)).collect(),
        vec![(n + 1.0) / 2.0; thetas.len()],
    ));
    let (_, rt) = aggregate_rollouts(items.iter(), |it| {
        random_rollout(it, &zoo, 1.0, threshold, 31)
    });
    series_time.push(Series::new(
        "Random",
        thetas.iter().map(|&t| f64::from(t)).collect(),
        vec![rt; thetas.len()],
    ));

    let f_pos = Figure {
        id: "fig9_order".into(),
        title: "avg execution order of the face-detection model vs θ".into(),
        x_label: "theta".into(),
        y_label: "position".into(),
        series: series_pos,
    };
    let f_time = Figure {
        id: "fig9_time".into(),
        title: "avg full-recall execution time vs θ".into(),
        x_label: "theta".into(),
        y_label: "seconds".into(),
        series: series_time,
    };
    h.emit(&f_pos);
    h.emit(&f_time);
    (f_pos, f_time)
}

/// Fig. 10 — value recall under deadline constraints: Algorithm 1 (cost-Q
/// greedy) vs Q-greedy vs random vs optimal*, plus the performance-ratio
/// panel.
pub fn fig10_deadline(h: &mut Harness) -> Vec<Figure> {
    let grid = deadline_grid_s();
    let zoo = h.zoo.clone();
    let threshold = h.cfg.threshold;
    let mut figures = Vec::new();
    let mut ratio_series: Vec<Series> = Vec::new();

    for profile in DatasetProfile::PREDICTION_TRIO {
        let agent = h.agent(profile, Algo::DuelingDqn);
        let predictor = AgentPredictor::new(agent);
        let items = h.eval_items(profile);

        let mut y_alg1 = Vec::new();
        let mut y_qg = Vec::new();
        let mut y_rand = Vec::new();
        let mut y_star = Vec::new();
        for &dl in &grid {
            let budget_ms = (dl * 1000.0) as u64;
            let mut r_alg1 = 0.0;
            let mut r_qg = 0.0;
            let mut r_rand = 0.0;
            let mut r_star = 0.0;
            for item in &items {
                r_alg1 += schedule_deadline(&predictor, &zoo, item, budget_ms, threshold).recall;
                r_qg += q_greedy_deadline_recall(&predictor, &zoo, item, budget_ms, threshold);
                r_rand += random_deadline_recall(&zoo, item, budget_ms, threshold, 17);
                r_star += optimal_star::recall::deadline(&zoo, item, budget_ms, threshold);
            }
            let n = items.len() as f64;
            y_alg1.push(r_alg1 / n);
            y_qg.push(r_qg / n);
            y_rand.push(r_rand / n);
            y_star.push(r_star / n);
        }
        let ratio: Vec<f64> = y_alg1
            .iter()
            .zip(&y_star)
            .map(|(a, s)| if *s > 0.0 { a / s } else { 1.0 })
            .collect();
        ratio_series.push(Series::new(profile.name(), grid.clone(), ratio));

        let tag = profile.name().replace(' ', "_");
        let fig = Figure {
            id: format!("fig10_{tag}"),
            title: format!("value recall vs deadline — {}", profile.name()),
            x_label: "deadline s".into(),
            y_label: "recall".into(),
            series: vec![
                Series::new("Q Greedy", grid.clone(), y_qg),
                Series::new("Cost-Q Greedy", grid.clone(), y_alg1),
                Series::new("Random", grid.clone(), y_rand),
                Series::new("Optimal*", grid.clone(), y_star),
            ],
        };
        h.emit(&fig);
        figures.push(fig);
    }

    let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
    ratio_series.push(Series::new(
        "1-1/e",
        grid.clone(),
        vec![one_minus_inv_e; grid.len()],
    ));
    let ratio_fig = Figure {
        id: "fig10_ratio".into(),
        title: "Algorithm 1 / optimal* performance ratio".into(),
        x_label: "deadline s".into(),
        y_label: "ratio".into(),
        series: ratio_series,
    };
    h.emit(&ratio_fig);
    figures.push(ratio_fig);
    figures
}

/// Fig. 11 — recall under deadline + memory constraints (Algorithm 2 vs
/// random packing vs optimal*), and the ratio panel.
pub fn fig11_memory(h: &mut Harness) -> Vec<Figure> {
    // The paper's worst case: Agent1 (Stanford40) evaluated on Dataset2.
    let agent = h.agent(DatasetProfile::Stanford40, Algo::DuelingDqn);
    let predictor = AgentPredictor::new(agent);
    let items = h.eval_items(DatasetProfile::PascalVoc2012);
    let zoo = h.zoo.clone();
    let threshold = h.cfg.threshold;
    let grid = memory_deadline_grid_s();
    let mems = [(8192u32, "8GB"), (12288, "12GB"), (16384, "16GB")];

    let mut figures = Vec::new();
    let mut ratio_series: Vec<Series> = Vec::new();
    for (mem_mb, mem_name) in mems {
        let mut y_agent = Vec::new();
        let mut y_rand = Vec::new();
        let mut y_star = Vec::new();
        for &dl in &grid {
            let budget_ms = (dl * 1000.0) as u64;
            let mut ra = 0.0;
            let mut rr = 0.0;
            let mut rs = 0.0;
            for item in &items {
                ra +=
                    schedule_deadline_memory(&predictor, &zoo, item, budget_ms, mem_mb, threshold)
                        .recall;
                let seed = 23 ^ item.scene_id.wrapping_mul(0x9E37_79B9);
                rr += random_packing_recall(item, &zoo, budget_ms, mem_mb, threshold, seed);
                rs +=
                    optimal_star::recall::deadline_memory(&zoo, item, budget_ms, mem_mb, threshold);
            }
            let n = items.len() as f64;
            y_agent.push(ra / n);
            y_rand.push(rr / n);
            y_star.push(rs / n);
        }
        let ratio: Vec<f64> = y_agent
            .iter()
            .zip(&y_star)
            .map(|(a, s)| if *s > 0.0 { a / s } else { 1.0 })
            .collect();
        ratio_series.push(Series::new(format!("{mem_name} Mem"), grid.clone(), ratio));
        let fig = Figure {
            id: format!("fig11_{mem_name}"),
            title: format!("recall vs deadline under {mem_name} memory"),
            x_label: "deadline s".into(),
            y_label: "recall".into(),
            series: vec![
                Series::new("Agent", grid.clone(), y_agent),
                Series::new("Random", grid.clone(), y_rand),
                Series::new("Optimal*", grid.clone(), y_star),
            ],
        };
        h.emit(&fig);
        figures.push(fig);
    }
    let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
    ratio_series.push(Series::new(
        "1-1/e",
        grid.clone(),
        vec![one_minus_inv_e; grid.len()],
    ));
    let ratio_fig = Figure {
        id: "fig11_ratio".into(),
        title: "Algorithm 2 / optimal* performance ratio".into(),
        x_label: "deadline s".into(),
        y_label: "ratio".into(),
        series: ratio_series,
    };
    h.emit(&ratio_fig);
    figures.push(ratio_fig);
    figures
}

/// Fig. 12 — transfer agents under deadline constraints (Algorithm 1).
pub fn fig12_transfer_deadline(h: &mut Harness) -> Vec<Figure> {
    let d1 = DatasetProfile::Stanford40;
    let d2 = DatasetProfile::PascalVoc2012;
    let agent1 = AgentPredictor::new(h.agent(d1, Algo::DuelingDqn));
    let agent2 = AgentPredictor::new(h.agent(d2, Algo::DuelingDqn));
    let zoo = h.zoo.clone();
    let threshold = h.cfg.threshold;
    let grid = deadline_grid_s();

    let mut figures = Vec::new();
    for (name, profile) in [("Dataset1", d1), ("Dataset2", d2)] {
        let items = h.eval_items(profile);
        let mut y1 = Vec::new();
        let mut y2 = Vec::new();
        let mut yr = Vec::new();
        let mut ys = Vec::new();
        for &dl in &grid {
            let budget_ms = (dl * 1000.0) as u64;
            let mut a1 = 0.0;
            let mut a2 = 0.0;
            let mut rr = 0.0;
            let mut ss = 0.0;
            for item in &items {
                a1 += schedule_deadline(&agent1, &zoo, item, budget_ms, threshold).recall;
                a2 += schedule_deadline(&agent2, &zoo, item, budget_ms, threshold).recall;
                rr += random_deadline_recall(&zoo, item, budget_ms, threshold, 29);
                ss += optimal_star::recall::deadline(&zoo, item, budget_ms, threshold);
            }
            let n = items.len() as f64;
            y1.push(a1 / n);
            y2.push(a2 / n);
            yr.push(rr / n);
            ys.push(ss / n);
        }
        let fig = Figure {
            id: format!("fig12_{name}"),
            title: format!("transfer agents under deadline — {name}"),
            x_label: "deadline s".into(),
            y_label: "recall".into(),
            series: vec![
                Series::new("Agent1", grid.clone(), y1),
                Series::new("Agent2", grid.clone(), y2),
                Series::new("Random", grid.clone(), yr),
                Series::new("Optimal*", grid.clone(), ys),
            ],
        };
        h.emit(&fig);
        figures.push(fig);
    }
    figures
}

/// Table III — scheduling overhead: per-decision agent time and memory vs
/// the simulated model costs.
pub fn table3_overhead(h: &mut Harness) -> String {
    let agent = h.agent(DatasetProfile::Coco2017, Algo::DuelingDqn);
    let items = h.eval_items(DatasetProfile::Coco2017);
    // time per decision: full Q evaluation on a populated state
    let state: Vec<u32> = items
        .first()
        .map(|it| {
            let mut s = LabelSet::new(it.universe());
            for m in 0..10 {
                it.apply(&mut s, ModelId(m), h.cfg.threshold);
            }
            s.to_sparse()
        })
        .unwrap_or_default();
    let reps = 2000;
    let t0 = std::time::Instant::now();
    let mut sink = 0.0f32;
    for _ in 0..reps {
        sink += agent.q_values(&state).iter().sum::<f32>();
    }
    let per_decision_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    std::hint::black_box(sink);

    let params = agent.net.param_count();
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
    h.emit_text("table3_overhead", &out);
    out
}

/// §I ablation — explore–exploit on correlated chunked streams.
pub fn ablation_chunked(h: &mut Harness) -> String {
    let zoo = h.zoo.clone();
    let chunks = chunked::chunked_stream(&zoo, 40, 7, h.cfg.seed, h.cfg.threshold);
    let cfg = ChunkedConfig::default();
    let (time, recall, no_policy) = chunked::run_stream(&chunks, &zoo, &cfg);
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
    h.emit_text("ablation_chunked", &out);
    out
}

/// Reward-design ablation: END action on/off and the three smoothings
/// (§IV-A/§IV-B design choices).
pub fn ablation_reward(h: &mut Harness) -> String {
    let profile = DatasetProfile::Coco2017;
    let train_items = h.train_items(profile);
    let items = h.eval_items(profile);
    let zoo = h.zoo.clone();
    let threshold = h.cfg.threshold;
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

    let variants: Vec<(&str, TrainConfig)> = vec![
        (
            "log smoothing + END",
            TrainConfig {
                episodes,
                ..TrainConfig::new(Algo::Dqn)
            },
        ),
        (
            "no END action",
            TrainConfig {
                episodes,
                use_end_action: false,
                ..TrainConfig::new(Algo::Dqn)
            },
        ),
        (
            "mean smoothing",
            TrainConfig {
                episodes,
                reward: RewardConfig {
                    smoothing: Smoothing::Mean,
                    ..Default::default()
                },
                ..TrainConfig::new(Algo::Dqn)
            },
        ),
        (
            "raw sum (biased)",
            TrainConfig {
                episodes,
                reward: RewardConfig {
                    smoothing: Smoothing::Sum,
                    ..Default::default()
                },
                ..TrainConfig::new(Algo::Dqn)
            },
        ),
    ];
    for (name, cfg) in variants {
        let (agent, stats) = train(&train_items, zoo.len(), &cfg);
        let predictor = AgentPredictor::new(agent);
        let (m, t) = aggregate_rollouts(items.iter(), |it| {
            predictor_greedy_rollout(it, &zoo, &predictor, 0.8, threshold)
        });
        // convergence evidence: late-training reward and episode length
        // (the END action exists to let episodes stop instead of farming -1s)
        let tail = stats.episode_lengths.len() / 4;
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
        random_rollout(it, &zoo, 0.8, threshold, 5)
    });
    let _ = writeln!(
        out,
        "{:<26} {rm:>12.2} {rt:>12.2} {:>14} {:>14}",
        "random baseline", "-", "-"
    );
    h.emit_text("ablation_reward", &out);
    out
}

/// Relation-graph comparator (§VIII future work): graph predictor vs rules
/// vs agent at 0.8 recall.
pub fn ablation_graph(h: &mut Harness) -> String {
    let profile = DatasetProfile::Coco2017;
    let train_items = h.train_items(profile);
    let items = h.eval_items(profile);
    let zoo = h.zoo.clone();
    let catalog = h.catalog.clone();
    let threshold = h.cfg.threshold;

    let graph = ModelRelationGraph::build(&train_items, zoo.len(), catalog.len(), threshold);
    let gp = GraphPredictor::new(graph);
    let agent = AgentPredictor::new(h.agent(profile, Algo::DuelingDqn));
    let book = RuleBook::table2(&catalog);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ablation — relation-graph predictor vs baselines (recall 0.8)"
    );
    let _ = writeln!(out, "{:<18} {:>12} {:>12}", "policy", "models", "time s");
    type ItemRunner<'a> = Box<dyn Fn(&ItemTruth) -> Rollout + 'a>;
    let rows: Vec<(&str, ItemRunner<'_>)> = vec![
        (
            "relation-graph",
            Box::new(|it| predictor_greedy_rollout(it, &zoo, &gp, 0.8, threshold)),
        ),
        (
            "dueling-dqn",
            Box::new(|it| predictor_greedy_rollout(it, &zoo, &agent, 0.8, threshold)),
        ),
        (
            "rules",
            Box::new(|it| rule_rollout(it, &zoo, &catalog, &book, 0.8, threshold, 13)),
        ),
        (
            "random",
            Box::new(|it| random_rollout(it, &zoo, 0.8, threshold, 13)),
        ),
        (
            "optimal",
            Box::new(|it| optimal_rollout(it, &zoo, 0.8, threshold)),
        ),
    ];
    for (name, f) in &rows {
        let (m, t) = aggregate_rollouts(items.iter(), |it| f(it));
        let _ = writeln!(out, "{name:<18} {m:>12.2} {t:>12.2}");
    }
    h.emit_text("ablation_graph", &out);
    out
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// Q-greedy under a deadline: execute the max-Q unexecuted model that still
/// fits (the paper's "Q Greedy" baseline of Fig. 10, which ignores cost).
fn q_greedy_deadline_recall(
    predictor: &AgentPredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    threshold: f32,
) -> f64 {
    let mut q = vec![0.0f32; zoo.len()];
    run_serial(
        item,
        zoo,
        budget_ms,
        threshold,
        |state, mask, remaining, _| {
            predictor.predict_into(state, item, &mut q);
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
