//! The repository benchmark. One workload per run:
//!
//! ```text
//! perfsuite --workload read-small|train --seed N --seconds S --trace 0|1
//! ```
//!
//! `read-small` starts `cdrib-served` (path in `PERFSUITE_SERVED`)
//! as a separate process; `train` drives the trainer in child processes of
//! this binary (`--role train|train-serial` is that internal entry point).
//! The last stdout line is the result object; the line before it is the
//! environment stamp. See `perfsuite/README.md` for what each metric means
//! on each workload.

mod serving;
mod stats;
mod trace;
mod train;

use cdrib_tensor::alloc_track::CountingAlloc;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Fixed seed of every dataset the workloads serve or train on. `--seed`
/// varies the traffic (users, arrival times, deltas, sampling), never the
/// data, so runs with different seeds measure the same system.
pub const DATA_SEED: u64 = 42;

/// Absolute offered read rate (requests/s) of `read-small`'s open-loop
/// segments, which give `p50_us`. It is well under the
/// server's capacity on a two-core machine, so no read is shed.
pub const NOMINAL_RATE: f64 = 20_000.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub role: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        role: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} expects a value"))?;
        match key.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?,
            "--trace" => args.trace = value == "1",
            "--role" if matches!(value.as_str(), "train" | "train-serial") => args.role = Some(value),
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    if args.seconds <= 0.0 && args.role.is_none() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Measures, from its start, the share of the machine's CPU time that the
/// hypervisor gave to other guests (steal, from `/proc/stat`). On a shared
/// host it moves a round's timings far more than the program's own
/// variation does, so the timing figures come from the rounds where it was
/// least (see `stats::calmest`). Reads as zero where `/proc/stat` is
/// unavailable.
pub struct StealMeter((u64, u64));

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    pub fn share(&self) -> f64 {
        let now = cpu_ticks();
        let total = now.1.saturating_sub(self.0 .1);
        if total == 0 {
            0.0
        } else {
            now.0.saturating_sub(self.0 .0) as f64 / total as f64
        }
    }
}

/// CPU time a process has run, its finished threads included, in seconds:
/// user plus system time from `/proc/<pid>/stat`. Time the hypervisor
/// stole from the process is not in it.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks of 1/100 s.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Steal and total CPU time of the machine so far, in clock ticks.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .map(|l| l.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A workload's outcome: metrics by name with units, plus the counts and
/// checks the result line reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, by description.
    pub violations: Vec<String>,
    /// Workload shape and other context for the environment stamp.
    pub shape: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn shape(&mut self, key: &str, value: impl ToString) {
        self.shape.push((key.to_string(), value.to_string()));
    }
}

/// Directory for the run's artifacts and logs, inside the checkout.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    let dir = PathBuf::from("perfsuite/.work").join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}

pub fn served_binary() -> Result<PathBuf, String> {
    let path = PathBuf::from(std::env::var("PERFSUITE_SERVED").map_err(|_| "PERFSUITE_SERVED is not set")?);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("server binary {} not found", path.display()))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn git_rev() -> String {
    // The checkout may not be a git repository; report what is known.
    let head = std::fs::read_to_string(".git/HEAD").ok();
    match head.as_deref().map(str::trim) {
        Some(h) if h.starts_with("ref: ") => std::fs::read_to_string(format!(".git/{}", &h[5..]))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        Some(h) => h.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the directory holding the WAL, from `/proc/mounts`.
fn filesystem_of(dir: &std::path::Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &Args, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut fields = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
        ("git_rev".to_string(), git_rev()),
        ("cpu".to_string(), cpu_model()),
        ("nproc".to_string(), nproc.to_string()),
        ("isa".to_string(), cdrib_tensor::kernels::active_isa().to_string()),
        (
            "kernel_parallelism".to_string(),
            cdrib_tensor::kernels::parallelism().to_string(),
        ),
        ("features".to_string(), "parallel,alloc-track(runner only)".to_string()),
        (
            "wal_fs".to_string(),
            filesystem_of(std::path::Path::new("perfsuite/.work")),
        ),
    ];
    fields.extend(report.shape.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                },
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.violations.is_empty() && report.metrics.iter().all(|(_, v, _)| v.is_finite()),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let seconds = Duration::from_secs_f64(args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("read-small", false) => serving_workload(args, seconds),
        ("train", false) => train::workload(args, seconds),
        (w @ ("read-small" | "train"), true) => trace::workload(w, args, seconds),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

fn serving_workload(args: &Args, seconds: Duration) -> Result<Report, String> {
    let mut setup = serving::ServingSetup::build(&args.workload, args.seed)?;
    let mut report = Report::default();
    setup.describe(&mut report);
    let out = setup.drive(args.seed, seconds, &mut report)?;
    report.metric("setup_s", out.setup_s, "s");
    report.metric("rss_mb", out.rss_mb, "MB");
    report.metric("p50_us", out.p50_us, "us");
    report.metric("ops_per_cpu_s", out.ops_per_cpu_s, "1/s");
    setup.finish()?;
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            std::process::exit(2);
        }
    };
    if let Some(role) = &args.role {
        std::process::exit(train::child_role(role, &args));
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfsuite: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for v in &report.violations {
        eprintln!("perfsuite: correctness check failed: {v}");
    }
    println!("{}", stamp(&args, &report));
    println!("{}", result_line(&report));
}
