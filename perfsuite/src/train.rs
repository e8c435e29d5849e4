//! The `train` workload: the MusicMovie `small` preset trained by the
//! program's trainer (`cdrib_core::train_model`) for a fixed epoch budget
//! with default parallelism, then cold-start eval passes in both directions
//! on the test split. The trainer runs in child processes of this binary so
//! its set-up time and peak RSS are its own.

use crate::stats::{calmest, median, percentile};
use crate::trace::{traced_epoch, Tracer};
use crate::Args;
use cdrib_core::{train_model, CdribConfig, CdribModel};
use cdrib_data::{build_preset, CdrScenario, Direction, EpochBatches, Scale, ScenarioKind};
use cdrib_eval::{evaluate_both_directions, ColdStartScorer, EmbeddingScorer, EvalConfig, EvalSplit};
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{Adam, Tape};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fixed training budget; `cold_mrr` is measured after it.
pub const TRAIN_EPOCHS: usize = 20;
/// Fewest trainer processes per run. A run starts trainers one after
/// another until its time is up; the third of them with the least host
/// steal give the training CPU cost (see `crate::StealMeter`).
pub const MIN_PROCESSES: usize = 2;
/// Eval passes each trainer process times after training.
pub const EVAL_PASSES: usize = 200;
/// Epochs the single-threaded baseline times.
pub const SERIAL_EPOCHS: usize = 10;

/// The trainer's configuration: the fixed budget, no validation passes.
pub fn config() -> CdribConfig {
    CdribConfig {
        epochs: TRAIN_EPOCHS,
        dim: 32,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: crate::DATA_SEED,
        ..CdribConfig::default()
    }
}

/// The scenario a workload trains on: MusicMovie `small` for `train`; in
/// the traced run of `read-small`, the served GameVideo `small` dataset.
pub fn scenario(workload: &str) -> CdrScenario {
    match workload {
        "read-small" => {
            build_preset(ScenarioKind::GameVideo, Scale::Small, crate::DATA_SEED).expect("GameVideo small preset")
        }
        _ => build_preset(ScenarioKind::MusicMovie, Scale::Small, crate::DATA_SEED).expect("MusicMovie small preset"),
    }
}

/// The paper's 999 negatives, capped by the smaller catalogue.
pub fn eval_config(scenario: &CdrScenario, seed: u64) -> EvalConfig {
    EvalConfig {
        n_negatives: 999.min(scenario.x.n_items.min(scenario.y.n_items) - 1),
        seed,
        max_cases: None,
    }
}

/// A scorer that times each per-case call into the embedding scorer.
pub struct TimedScorer<'a> {
    pub inner: &'a EmbeddingScorer,
    pub samples: Mutex<Vec<(u64, usize)>>,
}

impl ColdStartScorer for TimedScorer<'_> {
    fn score_into(&self, direction: Direction, user: u32, items: &[u32], out: &mut [f32]) {
        let t = Instant::now();
        self.inner.score_into(direction, user, items, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.samples
            .lock()
            .expect("no panics while sampling")
            .push((ns, items.len()));
    }
}

/// Mean cold-start MRR over both directions.
pub fn cold_mrr<S: ColdStartScorer + ?Sized>(scorer: &S, scenario: &CdrScenario, seed: u64) -> f64 {
    let (a, b) =
        evaluate_both_directions(scorer, scenario, EvalSplit::Test, &eval_config(scenario, seed)).expect("eval");
    (a.metrics.mrr + b.metrics.mrr) / 2.0
}

/// The state of `cdrib_core::train_model`'s step loop, driven one epoch at
/// a time by [`traced_epoch`] in the traced run and the serial baseline.
pub struct Trainer {
    pub model: CdribModel,
    pub opt: Adam,
    pub rng: rand::rngs::StdRng,
    pub tape: Tape,
    pub xb: EpochBatches,
    pub yb: EpochBatches,
}

impl Trainer {
    pub fn new(scenario: &CdrScenario) -> Trainer {
        let config = config();
        Trainer {
            model: CdribModel::new(&config, scenario).expect("model"),
            opt: Adam::new(config.learning_rate, 0.9, 0.999, 1e-8, config.l2_weight),
            rng: component_rng(config.seed, "cdrib-train"),
            tape: Tape::new(),
            xb: EpochBatches::new(),
            yb: EpochBatches::new(),
        }
    }
}

/// Child process: builds the workload's data and model, prints `ready`,
/// then prints `key value` lines. The `train` role times
/// `cdrib_core::train_model` over [`TRAIN_EPOCHS`] in wall-clock and CPU
/// time, measures cold-start MRR
/// of the embeddings it returns, then times [`EVAL_PASSES`] eval passes.
/// It meters host steal over its whole life. The `train-serial` role times [`SERIAL_EPOCHS`]
/// epochs of the traced run's loop, untraced.
pub fn child_role(role: &str, args: &Args) -> i32 {
    let meter = crate::StealMeter::start();
    let scenario = scenario(&args.workload);
    if role == "train-serial" {
        let mut trainer = Trainer::new(&scenario);
        let (mut off, mut losses, mut epoch_ms) = (Tracer::new(false), Vec::new(), Vec::new());
        println!("ready");
        for e in 0..SERIAL_EPOCHS as u64 {
            let t = Instant::now();
            traced_epoch(&mut trainer, &scenario, &mut off, e, &mut losses);
            epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        println!("epoch_ms {}", median(&epoch_ms));
        return 0;
    }
    let config = config();
    let mut model = CdribModel::new(&config, &scenario).expect("model");
    println!("ready");
    let untrained = model.infer_embeddings().expect("embeddings").into_scorer();
    let mrr0 = cold_mrr(&untrained, &scenario, args.seed);
    let cpu0 = crate::process_cpu_s(std::process::id()).unwrap_or(f64::NAN);
    let t = Instant::now();
    let trained = match train_model(&mut model, &config, &scenario) {
        Ok(trained) => trained,
        Err(e) => {
            // Divergence: reported as a failed check, with no figures.
            eprintln!("trainer: {e}");
            println!("losses_finite 0");
            return 0;
        }
    };
    let train_s = t.elapsed().as_secs_f64();
    let train_cpu_s = crate::process_cpu_s(std::process::id()).unwrap_or(f64::NAN) - cpu0;
    let epochs = trained.report.epochs_run;
    let losses_finite = trained.report.epochs.iter().all(|e| e.loss.is_finite());
    let scorer = trained.scorer();
    let mrr = cold_mrr(&scorer, &scenario, args.seed);
    // Peak RSS of training and one eval pass, before the timing samples
    // below add their own memory.
    let rss_mb = crate::serving::vm_hwm_mb(std::process::id()).unwrap_or(f64::NAN);
    let timed = TimedScorer {
        inner: &scorer,
        samples: Mutex::new(Vec::new()),
    };
    let mut eval_ms = Vec::new();
    while eval_ms.len() < EVAL_PASSES {
        let t = Instant::now();
        cold_mrr(&timed, &scenario, args.seed);
        eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let samples = timed.samples.into_inner().expect("no panics while sampling");
    let mut case_us: Vec<f64> = samples.iter().map(|(ns, _)| *ns as f64 / 1e3).collect();
    case_us.sort_by(f64::total_cmp);
    let edges = scenario.x.train.n_edges() + scenario.y.train.n_edges();
    println!("epochs_run {epochs}");
    println!("epoch_ms {}", train_s * 1e3 / epochs as f64);
    println!("edges_per_s {}", (edges * epochs) as f64 / train_s);
    println!("edges_per_cpu_s {}", (edges * epochs) as f64 / train_cpu_s);
    println!("eval_ms {}", median(&eval_ms));
    println!("eval_passes {}", eval_ms.len());
    println!("case_p50_us {}", percentile(&case_us, 0.5));
    println!("cases_timed {}", case_us.len());
    println!("case_p90_us {}", percentile(&case_us, 0.9));
    println!("case_p95_us {}", percentile(&case_us, 0.95));
    println!("case_p99_us {}", percentile(&case_us, 0.99));
    println!("cold_mrr {mrr}");
    println!("untrained_mrr {mrr0}");
    println!("losses_finite {}", losses_finite as u8);
    println!("rss_mb {rss_mb}");
    println!("steal {}", meter.share());
    0
}

/// Spawns this binary in `role`; returns the time to its `ready` line and
/// its `key value` output lines.
pub fn spawn_role(role: &str, args: &Args, env: &[(&str, &str)]) -> Result<(f64, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut cmd = Command::new(exe);
    cmd.args([
        "--role",
        role,
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .stdout(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn trainer: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
    let ready = lines.next().and_then(|l| l.ok());
    let setup_s = started.elapsed().as_secs_f64();
    // Read to the end before waiting; a read error still waits for the child.
    let values: Result<Vec<(String, f64)>, _> = lines
        .filter_map(|line| match line {
            Ok(l) => l
                .split_once(' ')
                .map(|(k, v)| Ok((k.to_string(), v.parse().unwrap_or(f64::NAN)))),
            Err(e) => Some(Err(e)),
        })
        .collect();
    let status = child.wait().map_err(|e| e.to_string())?;
    let values = values.map_err(|e| format!("trainer role {role} output: {e}"))?;
    if ready.as_deref() != Some("ready") || !status.success() {
        return Err(format!("trainer role {role} failed ({status})"));
    }
    Ok((setup_s, values))
}

pub fn get(values: &[(String, f64)], key: &str) -> f64 {
    values
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or(f64::NAN)
}

pub fn workload(args: &Args, seconds: Duration) -> Result<crate::Report, String> {
    let mut report = crate::Report::default();
    let scenario = scenario("train");
    for (name, d) in [("x", &scenario.x), ("y", &scenario.y)] {
        report.shape(&format!("{name}_users"), d.n_users);
        report.shape(&format!("{name}_items"), d.n_items);
        report.shape(&format!("{name}_edges"), d.train.n_edges());
    }
    report.shape("epochs", TRAIN_EPOCHS);
    report.shape(
        "test_cases",
        scenario.cold_x_to_y.test.len() + scenario.cold_y_to_x.test.len(),
    );
    // Several trainer processes: a process's thread placement and memory
    // layout move its epoch time by up to a fifth, and host steal moves it
    // more, so one process would decide a run's numbers.
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_PROCESSES || started.elapsed() < seconds {
        runs.push(spawn_role("train", args, &[])?);
    }
    for (_, v) in &runs {
        let (mrr, mrr0) = (get(v, "cold_mrr"), get(v, "untrained_mrr"));
        report.check(get(v, "losses_finite") == 1.0, || {
            "a training loss was not finite".into()
        });
        report.check(mrr > mrr0, || {
            format!("cold_mrr {mrr} does not beat the untrained {mrr0}")
        });
        report.check(mrr == get(&runs[0].1, "cold_mrr"), || {
            format!(
                "cold_mrr differs between trainer processes: {mrr} vs {}",
                get(&runs[0].1, "cold_mrr")
            )
        });
        report.attempted += (get(v, "epochs_run").max(1.0) + get(v, "eval_passes").max(0.0)) as u64;
    }
    let steal: Vec<f64> = runs.iter().map(|(_, v)| get(v, "steal")).collect();
    let calm = calmest(&steal, (runs.len() / 3).max(1));
    for (k, (setup_s, v)) in runs.iter().enumerate() {
        eprintln!(
            "trainer {k}: steal {:.3}, set-up {setup_s:.3}s, {:.0} edges/s, {:.0} edges/cpu-s, case p50 {:.2}us p90 {:.2}us p95 {:.2}us p99 {:.2}us{}",
            steal[k],
            get(v, "edges_per_s"),
            get(v, "edges_per_cpu_s"),
            get(v, "case_p50_us"),
            get(v, "case_p90_us"),
            get(v, "case_p95_us"),
            get(v, "case_p99_us"),
            if calm.contains(&k) { " (calm)" } else { "" },
        );
    }
    let over = |set: &[usize], key: &str| median(&set.iter().map(|&k| get(&runs[k].1, key)).collect::<Vec<_>>());
    let all: Vec<usize> = (0..runs.len()).collect();
    let across = |key: &str| over(&all, key);
    for key in [
        "epoch_ms",
        "epochs_run",
        "eval_ms",
        "eval_passes",
        "cold_mrr",
        "untrained_mrr",
        "case_p90_us",
        "case_p95_us",
        "case_p99_us",
        "cases_timed",
    ] {
        report.shape(key, across(key));
    }
    report.shape("process_steal", format!("{steal:.3?}"));
    report.shape("calm_processes", format!("{calm:?}"));
    report.failed = report.violations.len() as u64;
    report.metric(
        "setup_s",
        median(&runs.iter().map(|(setup_s, _)| *setup_s).collect::<Vec<_>>()),
        "s",
    );
    report.metric("rss_mb", across("rss_mb"), "MB");
    // A scored case takes a few µs, too short for host steal to move its
    // percentiles much. Training takes seconds, and steal slows its wall
    // clock by up to half; its CPU time is not charged with steal, so the
    // bounded figure is training work per CPU-second and the wall-clock
    // rate goes to the stamp.
    report.metric("p50_us", across("case_p50_us"), "us");
    report.shape("edges_per_s", over(&calm, "edges_per_s"));
    report.metric("ops_per_cpu_s", over(&calm, "edges_per_cpu_s"), "1/s");
    Ok(report)
}
