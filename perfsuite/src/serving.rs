//! The serving workload: `cdrib-served` as a separate process, driven by an
//! open-loop generator of two threads and one connection, then by a
//! saturation probe of one thread and one connection.

use crate::stats::{calmest, median, percentile, poisson_schedule, WireStats};
use cdrib_data::{CdrScenario, Direction, DomainId};
use cdrib_graph::GraphDelta;
use cdrib_serve::proto::{self, ClientMsg, FrameReader, RecommendReq, ServerMsg};
use cdrib_serve::{Client, Recommendation, Request};
use cdrib_tensor::rng::component_rng;
use rand::Rng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Rounds a `read-small` run is made of; how many of them, those with the
/// least host steal, give the latency figures; and how many give the CPU
/// cost, which steal moves far less (see `ServingSetup::drive`).
pub const ROUNDS: usize = 48;
pub const CALM_ROUNDS: usize = 8;
pub const CPU_ROUNDS: usize = 24;

/// Most reads any phase keeps unanswered on its connection: half the
/// server's default per-connection queue capacity (512), so admission
/// control never sheds. The saturation probe keeps exactly this many in
/// flight.
pub const WINDOW: usize = 256;
/// Reads the saturation probe sends per round.
pub const SATURATION_READS: usize = 40_000;

/// Items per top-K request.
pub const K: usize = 10;

/// A running `cdrib-served` child process.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    /// Spawn to the `listening on` line.
    pub setup_s: f64,
}

impl ServerProc {
    pub fn start(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let setup_s = started.elapsed().as_secs_f64();
        let addr = match (read, line.trim().strip_prefix("cdrib-served listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address (got {line:?})"));
            }
        };
        Ok(ServerProc { child, addr, setup_s })
    }

    /// CPU time the server process has run so far, in seconds.
    pub fn cpu_s(&self) -> f64 {
        crate::process_cpu_s(self.child.id()).unwrap_or(f64::NAN)
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id()).unwrap_or(f64::NAN)
    }

    pub fn stats(&self) -> Result<WireStats, String> {
        let (mut c, _) = Client::connect(self.addr.as_str()).map_err(|e| format!("stats connect: {e}"))?;
        c.send(&ClientMsg::Stats(0)).map_err(|e| format!("stats send: {e}"))?;
        match c.recv().map_err(|e| format!("stats recv: {e}"))? {
            ServerMsg::Stats(s) => Ok(WireStats {
                accepted: s.accepted,
                served: s.served,
                shed: s.shed,
                deltas_applied: s.deltas_applied,
                batches: s.batches,
                epoch: s.epoch,
            }),
            other => Err(format!("stats: unexpected reply {other:?}")),
        }
    }

    /// Asks the server to exit and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        let sent = Client::connect(self.addr.as_str()).and_then(|(mut c, _)| {
            c.send(&ClientMsg::Shutdown)?;
            c.recv()
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("server did not exit after shutdown ({sent:?})"));
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of a process from `/proc`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Read requests alternating directions, users uniform over each source
/// domain's users.
pub fn read_mix(seed: u64, stream: &str, users: (usize, usize), n: usize) -> Vec<Request> {
    let mut rng = component_rng(seed, stream);
    (0..n)
        .map(|i| {
            let (direction, bound) = if i % 2 == 0 {
                (Direction::X_TO_Y, users.0)
            } else {
                (Direction::Y_TO_X, users.1)
            };
            Request {
                direction,
                user: rng.gen_range(0..bound as u32),
                k: K,
            }
        })
        .collect()
}

pub fn encode_read(out: &mut Vec<u8>, req_id: u64, r: &Request) {
    proto::write_frame(
        out,
        &ClientMsg::Recommend(RecommendReq {
            req_id,
            direction: r.direction,
            user: r.user,
            k: r.k as u32,
        }),
    );
}

pub fn bitwise_equal(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// Users per delta and edges per new user. These are the batch shapes
/// `serve_perf` prices the online delta path with
/// (`crates/bench/src/bin/serve_perf.rs`; recorded in `BENCH_serve.json` as
/// `delta_users_per_batch`, `delta_edges_per_user` and
/// `removal_users_per_batch`).
pub const DELTA_USERS: u32 = 8;
pub const DELTA_EDGES_PER_USER: usize = 4;

/// `n` deltas in domain X shaped and ordered as `serve_perf` applies them:
/// first growth batches, each adding [`DELTA_USERS`] cold users with
/// [`DELTA_EDGES_PER_USER`] uniformly drawn items each, then as many
/// erasure batches, each erasing one growth batch's users, oldest first.
pub fn delta_mix(seed: u64, scenario: &CdrScenario, n: usize) -> Vec<(DomainId, GraphDelta)> {
    let mut rng = component_rng(seed, "deltas");
    let (base, items) = (scenario.x.n_users as u32, scenario.x.n_items as u32);
    let grow = (n - n / 2) as u32;
    let mut out = Vec::with_capacity(n);
    for b in 0..grow {
        let first = base + b * DELTA_USERS;
        let mut edges = Vec::with_capacity(DELTA_USERS as usize * DELTA_EDGES_PER_USER);
        for user in first..first + DELTA_USERS {
            for _ in 0..DELTA_EDGES_PER_USER {
                edges.push((user, rng.gen_range(0..items)));
            }
        }
        let delta = GraphDelta {
            add_users: DELTA_USERS as usize,
            edges,
            ..GraphDelta::empty()
        };
        out.push((DomainId::X, delta));
    }
    for b in 0..(n / 2) as u32 {
        let first = base + b * DELTA_USERS;
        let delta = GraphDelta {
            erase_users: (first..first + DELTA_USERS).collect(),
            ..GraphDelta::empty()
        };
        out.push((DomainId::X, delta));
    }
    out
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct Phase {
    /// Latency (µs, from its due time) of every served read.
    pub reads: Vec<f64>,
    /// Sampled replies: `(read index, list)`.
    pub sampled: Vec<(usize, Vec<Recommendation>)>,
    pub reads_sent: u64,
    pub shed: u64,
    pub errors: u64,
    pub missing: u64,
    /// How late each frame left against its due time, µs.
    pub late_us: Vec<f64>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.missing
    }
}

/// Sends `reads` at their `due` offsets on one connection, timing every
/// reply from its due time. One thread sends, one thread receives. A read
/// that falls due while [`WINDOW`] reads are unanswered is held back until
/// one is answered; the wait counts as lateness and, since latency is timed
/// from due time, in its latency too. Every `sample_every`-th read keeps
/// its reply for the parity check.
pub fn open_loop(addr: &str, reads: &[Request], due: &[Duration], sample_every: usize) -> Result<Phase, String> {
    let (client, _) = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let conn = client.try_clone_stream().map_err(|e| format!("clone stream: {e}"))?;

    let mut frames = Vec::with_capacity(reads.len() * 48);
    let mut off = Vec::with_capacity(reads.len() + 1);
    off.push(0);
    for (i, r) in reads.iter().enumerate() {
        encode_read(&mut frames, i as u64, r);
        off.push(frames.len());
    }

    let start = Instant::now();
    let sender_done = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    let (late_us, mut phase) = std::thread::scope(|scope| {
        let mut write = conn.try_clone().map_err(|e| e.to_string())?;
        let reader = scope.spawn(|| receive(conn, start, due, sample_every, &sender_done, &answered));
        let mut late_us = Vec::with_capacity(reads.len());
        let mut i = 0usize;
        let mut write_err = None;
        while i < reads.len() {
            let now = start.elapsed();
            if due[i] > now {
                // Plain sleep: spinning would take a core from the server on
                // a two-core box. The overshoot is measured as lateness and
                // counted in every latency, which is timed from due time.
                std::thread::sleep(due[i] - now);
                continue;
            }
            let open = answered.load(Ordering::Acquire) + WINDOW;
            if i >= open {
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            let i0 = i;
            while i < reads.len().min(open) && due[i] <= now {
                i += 1;
            }
            let sent_at = start.elapsed();
            late_us.extend(due[i0..i].iter().map(|d| (sent_at - *d).as_secs_f64() * 1e6));
            if let Err(e) = write.write_all(&frames[off[i0]..off[i]]) {
                write_err = Some(format!("write reads: {e}"));
                break;
            }
        }
        sender_done.store(true, Ordering::SeqCst);
        let phase = reader.join().map_err(|_| "receiver panicked".to_string())??;
        match write_err {
            Some(e) => Err(e),
            None => Ok((late_us, phase)),
        }
    })?;
    phase.reads_sent = reads.len() as u64;
    phase.late_us = late_us;
    Ok(phase)
}

fn receive(
    mut conn: TcpStream,
    start: Instant,
    due: &[Duration],
    sample_every: usize,
    sender_done: &AtomicBool,
    answered: &AtomicUsize,
) -> Result<Phase, String> {
    conn.set_read_timeout(Some(Duration::from_millis(1)))
        .map_err(|e| e.to_string())?;
    let mut phase = Phase {
        reads: Vec::with_capacity(due.len()),
        ..Phase::default()
    };
    let mut frames = FrameReader::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let expected = due.len() as u64;
    let mut got = 0u64;
    let mut last_progress = Instant::now();
    while got < expected {
        match conn.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                frames.push_bytes(&chunk[..n]);
                last_progress = Instant::now();
            }
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                if sender_done.load(Ordering::SeqCst) && last_progress.elapsed() > Duration::from_secs(5) {
                    break;
                }
            }
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = Instant::now();
        while let Some(body) = frames.next_frame().map_err(|e| e.to_string())? {
            got += 1;
            answered.store(got as usize, Ordering::Release);
            match proto::decode_server(body).map_err(|e| e.to_string())? {
                ServerMsg::Recommendations(ok) => {
                    let idx = ok.req_id as usize;
                    let Some(&due) = due.get(idx) else {
                        phase.errors += 1;
                        continue;
                    };
                    phase
                        .reads
                        .push(now.saturating_duration_since(start + due).as_secs_f64() * 1e6);
                    if idx.is_multiple_of(sample_every) {
                        phase.sampled.push((idx, ok.recs));
                    }
                }
                ServerMsg::Overloaded(_) => phase.shed += 1,
                _ => phase.errors += 1,
            }
        }
    }
    phase.missing = expected.saturating_sub(got);
    Ok(phase)
}

/// Sends `reads` on one connection keeping at most `window` of them
/// unanswered, each sent as soon as a reply frees its slot; one thread both
/// sends and receives. Every read's latency is timed from its send. Returns
/// the time from the first send to the last reply, and what was observed.
/// With `window` at most the server's per-connection queue capacity,
/// admission control never sheds.
pub fn windowed(
    addr: &str,
    reads: &[Request],
    window: usize,
    sample_every: usize,
) -> Result<(Duration, Phase), String> {
    let (client, _) = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut conn = client.try_clone_stream().map_err(|e| format!("clone stream: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut phase = Phase {
        reads: Vec::with_capacity(reads.len()),
        reads_sent: reads.len() as u64,
        ..Phase::default()
    };
    let mut sent_at = vec![Duration::ZERO; reads.len()];
    let mut out = Vec::with_capacity(window * 48);
    let mut frames = FrameReader::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut next, mut got, mut in_flight) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    while got < reads.len() {
        out.clear();
        let now = start.elapsed();
        while next < reads.len() && in_flight < window {
            encode_read(&mut out, next as u64, &reads[next]);
            sent_at[next] = now;
            next += 1;
            in_flight += 1;
        }
        if !out.is_empty() {
            conn.write_all(&out).map_err(|e| format!("write reads: {e}"))?;
        }
        match conn.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => frames.push_bytes(&chunk[..n]),
            // Five seconds without a reply: the rest count as missing.
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => break,
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = start.elapsed();
        while let Some(body) = frames.next_frame().map_err(|e| e.to_string())? {
            got += 1;
            in_flight = in_flight.saturating_sub(1);
            match proto::decode_server(body).map_err(|e| e.to_string())? {
                ServerMsg::Recommendations(ok) => {
                    let idx = ok.req_id as usize;
                    let Some(&sent) = sent_at.get(idx) else {
                        phase.errors += 1;
                        continue;
                    };
                    phase.reads.push((now - sent).as_secs_f64() * 1e6);
                    if idx.is_multiple_of(sample_every) {
                        phase.sampled.push((idx, ok.recs));
                    }
                }
                ServerMsg::Overloaded(_) => phase.shed += 1,
                _ => phase.errors += 1,
            }
        }
    }
    let elapsed = start.elapsed();
    phase.missing = (reads.len() - got.min(reads.len())) as u64;
    drop(client);
    Ok((elapsed, phase))
}

/// Percentile `p` of the read latencies of one phase.
pub fn phase_percentile(phase: &Phase, p: f64) -> f64 {
    let mut v = phase.reads.clone();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median over `rounds` of each round's [`phase_percentile`].
pub fn read_percentile(phases: &[Phase], p: f64, rounds: &[usize]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|&k| phase_percentile(&phases[k], p))
            .collect::<Vec<_>>(),
    )
}

/// What the serving workload's driven phase measured.
pub struct Driven {
    /// Median over the run's server starts of spawn to `listening on`.
    pub setup_s: f64,
    /// Median over the run's servers of their peak RSS.
    pub rss_mb: f64,
    pub p50_us: f64,
    /// Reads answered per second of server CPU time in the saturation
    /// probe ([`windowed`]).
    pub ops_per_cpu_s: f64,
}

/// The dataset, server command line and in-process reference engine of a
/// served engine.
pub struct ServingSetup {
    pub dir: std::path::PathBuf,
    pub server_args: Vec<String>,
    pub scenario: CdrScenario,
    pub reference: cdrib_serve::Recommender,
    /// The engine's model frozen to a serve v2 artifact, for the traced
    /// run's delta and artifact probes (the served file itself on `train`).
    pub base: std::path::PathBuf,
    /// The model the artifact was frozen from.
    pub model: cdrib_core::CdribModel,
}

impl ServingSetup {
    /// `read-small` serves the GameVideo small preset; `train` (traced run
    /// only) serves the trained MusicMovie model.
    pub fn build(workload: &str, seed: u64) -> Result<ServingSetup, String> {
        let dir = crate::work_dir(workload, seed);
        let base = dir.join("base.v2");
        let (scenario, server_args, reference, model) = match workload {
            "read-small" => {
                let (reference, scenario) =
                    cdrib_serve::net::preset_engine("small", crate::DATA_SEED).map_err(|e| e.to_string())?;
                let args = vec![
                    "--preset".into(),
                    "small".into(),
                    "--seed".into(),
                    crate::DATA_SEED.to_string(),
                ];
                let model =
                    cdrib_core::CdribModel::new(&crate::train::config(), &scenario).map_err(|e| e.to_string())?;
                cdrib_core::save_serve_v2_file(&model, &scenario, true, true, &base).map_err(|e| e.to_string())?;
                (scenario, args, reference, model)
            }
            "train" => {
                let scenario = crate::train::scenario("train");
                let config = crate::train::config();
                let mut model = cdrib_core::CdribModel::new(&config, &scenario).map_err(|e| e.to_string())?;
                cdrib_core::train_model(&mut model, &config, &scenario).map_err(|e| e.to_string())?;
                cdrib_core::save_serve_v2_file(&model, &scenario, true, true, &base).map_err(|e| e.to_string())?;
                let reference =
                    cdrib_serve::Recommender::from_serve_v2_file_online(&base).map_err(|e| e.to_string())?;
                let args = vec!["--v2".into(), base.display().to_string()];
                (scenario, args, reference, model)
            }
            other => return Err(format!("not a serving workload: {other}")),
        };
        Ok(ServingSetup {
            dir,
            server_args,
            scenario,
            reference,
            base,
            model,
        })
    }

    pub fn users(&self) -> (usize, usize) {
        (self.scenario.x.n_users, self.scenario.y.n_users)
    }

    pub fn describe(&self, report: &mut crate::Report) {
        for (name, d) in [("x", &self.scenario.x), ("y", &self.scenario.y)] {
            report.shape(&format!("{name}_users"), d.n_users);
            report.shape(&format!("{name}_items"), d.n_items);
            report.shape(&format!("{name}_edges"), d.train.n_edges());
        }
        report.shape(
            "candidates_per_request",
            (self.scenario.x.n_items + self.scenario.y.n_items) / 2,
        );
        report.shape("nominal_rate", crate::NOMINAL_RATE);
        report.shape("saturation_window", WINDOW);
        report.shape("saturation_reads", SATURATION_READS);
    }

    pub fn start_server(&self) -> Result<ServerProc, String> {
        ServerProc::start(&crate::served_binary()?, &self.server_args)
    }

    /// [`ROUNDS`] rounds, each on a freshly started server: a parity check
    /// against the reference engine, a short warm-up at the nominal rate
    /// (replies checked and counted, not timed), the nominal segment
    /// (Poisson reads at [`crate::NOMINAL_RATE`] over half the round),
    /// then the saturation probe ([`SATURATION_READS`] reads with
    /// [`WINDOW`] in flight). No phase offers more than the
    /// server admits, so every read sent is answered.
    /// The figures come from the rounds with the least host steal over the
    /// segment they are measured in: the latencies as the median over the
    /// [`CALM_ROUNDS`] calmest nominal segments of each one's raw
    /// percentile; the CPU cost from the reads and server CPU time of the
    /// [`CPU_ROUNDS`] calmest saturation probes, pooled. On a shared host the
    /// CPU time the hypervisor takes moves a round's latency tail more than
    /// tenfold; the rounds are chosen by a signal the program cannot
    /// produce, so a cost the program adds stays in the figures.
    pub fn drive(&mut self, seed: u64, seconds: Duration, report: &mut crate::Report) -> Result<Driven, String> {
        let users = self.users();
        let rate = crate::NOMINAL_RATE;
        let per_round = seconds.div_f64(ROUNDS as f64);
        let warm = (per_round / 10).min(Duration::from_millis(300));
        let nominal_span = per_round.mul_f64(0.5);
        let (mut setups, mut rss) = (Vec::new(), Vec::new());
        let (mut nominal, mut saturation) = (Vec::new(), Vec::new());
        let (mut nominal_steal, mut saturation_steal) = (Vec::new(), Vec::new());
        let (mut saturation_s, mut saturation_p50, mut late) = (Vec::new(), Vec::new(), Vec::new());
        let mut saturation_cpu = Vec::new();
        let mut mismatches = 0u64;
        // Reads shed, answered with an error, and never answered.
        let mut lost = [0u64; 3];
        let mut expect = Vec::new();
        for round in 0..ROUNDS {
            let server = self.start_server()?;
            setups.push(server.setup_s);
            let parity = read_mix(seed, &format!("parity-{round}"), users, 40);
            let (mut client, _) = Client::connect(server.addr.as_str()).map_err(|e| e.to_string())?;
            for (i, r) in parity.iter().enumerate() {
                let got = client.recommend(i as u64, r).map_err(|e| e.to_string())?;
                self.reference.recommend(r, &mut expect).map_err(|e| e.to_string())?;
                match got {
                    ServerMsg::Recommendations(ok) if bitwise_equal(&ok.recs, &expect) => {}
                    _ => mismatches += 1,
                }
            }
            drop(client);
            let mut reads_sent = parity.len() as u64;

            let mut phases = Vec::with_capacity(3);
            for (kind, span) in [("warm", warm), ("nominal", nominal_span)] {
                let stream = format!("{kind}-{round}-{rate}");
                let due = poisson_schedule(seed, &format!("reads-{stream}"), rate, span);
                let reads = read_mix(seed, &format!("mix-{stream}"), users, due.len());
                let meter = crate::StealMeter::start();
                let phase = open_loop(&server.addr, &reads, &due, 61)?;
                phases.push((reads, phase, meter.share()));
            }
            let reads = read_mix(seed, &format!("mix-saturation-{round}"), users, SATURATION_READS);
            let meter = crate::StealMeter::start();
            let cpu0 = server.cpu_s();
            let (elapsed, phase) = windowed(&server.addr, &reads, WINDOW, 61)?;
            saturation_cpu.push(server.cpu_s() - cpu0);
            phases.push((reads, phase, meter.share()));
            saturation_s.push(elapsed.as_secs_f64());

            for (reads, phase, _) in &phases {
                for (idx, got) in &phase.sampled {
                    self.reference
                        .recommend(&reads[*idx], &mut expect)
                        .map_err(|e| e.to_string())?;
                    if !bitwise_equal(got, &expect) {
                        mismatches += 1;
                    }
                }
                reads_sent += phase.reads_sent;
                report.attempted += phase.reads_sent;
                report.failed += phase.failed();
                for (total, n) in lost.iter_mut().zip([phase.shed, phase.errors, phase.missing]) {
                    *total += n;
                }
            }
            let stats = server.stats()?;
            if let Err(e) = crate::stats::check_stats_identity(&stats, reads_sent, 0) {
                report.check(false, || format!("round {round}: stats identity: {e}"));
            }
            rss.push(server.peak_rss_mb());
            server.stop()?;

            let (_, sat, sat_steal) = phases.pop().expect("saturation phase");
            let (_, nom, nom_steal) = phases.pop().expect("nominal phase");
            saturation.push(sat.reads.len() as f64 / elapsed.as_secs_f64());
            saturation_p50.push(phase_percentile(&sat, 0.5));
            saturation_steal.push(sat_steal);
            late.extend_from_slice(&nom.late_us);
            nominal.push(nom);
            nominal_steal.push(nom_steal);
        }
        report.check(mismatches == 0, || {
            format!("{mismatches} replies differ from the reference engine")
        });
        report.attempted += (ROUNDS * 40) as u64;
        report.failed += mismatches;

        let calm_nominal = calmest(&nominal_steal, CALM_ROUNDS);
        let calm_saturation = calmest(&saturation_steal, CPU_ROUNDS);
        for k in 0..ROUNDS {
            eprintln!(
                "round {k:>2}: nominal steal {:.3}, p50 {:.0}us p90 {:.0}us p99 {:.0}us{}; saturation steal {:.3}, {:.0} reads/s{}, {:.0} reads/cpu-s",
                nominal_steal[k],
                phase_percentile(&nominal[k], 0.5),
                phase_percentile(&nominal[k], 0.9),
                phase_percentile(&nominal[k], 0.99),
                if calm_nominal.contains(&k) { " (calm)" } else { "" },
                saturation_steal[k],
                saturation[k],
                if calm_saturation.contains(&k) { " (calm)" } else { "" },
                SATURATION_READS as f64 / saturation_cpu[k],
            );
        }
        report.shape("reads_shed", lost[0]);
        report.shape("reads_errored", lost[1]);
        report.shape("reads_missing", lost[2]);
        report.shape("nominal_steal", format!("{nominal_steal:.3?}"));
        report.shape("calm_nominal_rounds", format!("{calm_nominal:?}"));
        report.shape("saturation_steal", format!("{saturation_steal:.3?}"));
        report.shape("calm_saturation_rounds", format!("{calm_saturation:?}"));
        report.shape("saturation_seconds_median", median(&saturation_s));
        // Not bounded metrics: on a shared two-core host the latency tail
        // and the wall-clock saturation rate follow the host's steal and
        // wake-up latency more than the program (see README).
        report.shape(
            "saturation_reads_per_s",
            median(&calm_saturation.iter().map(|&k| saturation[k]).collect::<Vec<_>>()),
        );
        report.shape("nominal_p90_us", read_percentile(&nominal, 0.9, &calm_nominal));
        report.shape("nominal_p95_us", read_percentile(&nominal, 0.95, &calm_nominal));
        report.shape("nominal_p99_us", read_percentile(&nominal, 0.99, &calm_nominal));
        report.shape(
            "saturation_p50_us",
            median(&calm_saturation.iter().map(|&k| saturation_p50[k]).collect::<Vec<_>>()),
        );
        report.shape(
            "nominal_samples_per_calm_round",
            median(
                &calm_nominal
                    .iter()
                    .map(|&k| nominal[k].reads.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        late.sort_by(f64::total_cmp);
        // Every scheduled frame is sent; lateness is how far behind its due
        // time it left (and is inside every latency, timed from due time).
        report.shape("gen_frames_sent", late.len());
        report.shape("gen_late_over_1ms", late.iter().filter(|l| **l > 1000.0).count());
        report.shape("gen_late_us_p50", percentile(&late, 0.5));
        report.shape("gen_late_us_p99", percentile(&late, 0.99));
        Ok(Driven {
            setup_s: median(&setups),
            rss_mb: median(&rss),
            p50_us: read_percentile(&nominal, 0.5, &calm_nominal),
            ops_per_cpu_s: (calm_saturation.len() * SATURATION_READS) as f64
                / calm_saturation.iter().map(|&k| saturation_cpu[k]).sum::<f64>(),
        })
    }
    /// Removes the run's work directory.
    pub fn finish(&self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove {}: {e}", self.dir.display()))
    }
}
