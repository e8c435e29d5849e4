//! The traced run: per-layer metrics.
//!
//! Spans are recorded in memory around this benchmark's own calls into each
//! layer's public functions, replaying the workload's inputs (the same seed
//! gives the same requests and deltas), and written out at the end. Every
//! workload's traced run measures every layer on that workload's data: the
//! serving layers against its engine, the delta path with the delta mix of
//! [`serving::delta_mix`], and the training layers on its dataset.
//! `trace.overhead_pct` compares the workload's own hot loop traced and
//! untraced.

use crate::serving::{self, ServingSetup};
use crate::stats::{median, percentile, self_time_ns, Span};
use crate::train::{self, TimedScorer, Trainer};
use crate::{Args, Report};
use cdrib_data::{CdrScenario, Direction, DomainId};
use cdrib_graph::DeltaEffect;
use cdrib_serve::proto::{self, FrameReader, ServerMsg};
use cdrib_serve::{Client, DeltaWal, Recommendation, Recommender, Request, ServerConfig};
use cdrib_tensor::alloc_track::allocation_count;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Requests replayed closed-loop and through the in-process probes.
const PROBE_REQUESTS: usize = 2000;
/// Deltas replayed through the delta-path probes.
const PROBE_DELTAS: usize = 300;
/// Training epochs timed per mode (traced and untraced).
const PROBE_EPOCHS: usize = 8;

/// In-memory span recorder. When off, `open` records nothing, so the same
/// code runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            on,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Durations (ns) of the spans named `name`, summed per request id, in
    /// request order.
    pub fn per_request_ns(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = (s.end_ns - s.start_ns) as f64;
            match sums.last_mut() {
                Some((r, v)) if *r == s.request => *v += d,
                _ => sums.push((s.request, d)),
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    /// Self time (ns) of each span named `name`.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i) as f64)
            .collect()
    }

    /// Writes one `name start_ns end_ns parent request` line per span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(out, "{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.request)?;
        }
        out.flush()
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

pub fn workload(w: &str, args: &Args, seconds: Duration) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);
    let mut setup = ServingSetup::build(w, args.seed)?;
    setup.describe(&mut report);
    let overhead_train = train_section(w, args, &mut tracer, &mut report)?;
    let overhead_serve = serving_section(&mut setup, args, seconds, &mut tracer, &mut report)?;
    delta_section(&setup, args, &mut tracer, &mut report)?;
    report.metric(
        "trace.overhead_pct",
        if w == "train" { overhead_train } else { overhead_serve },
        "%",
    );
    let out = std::path::PathBuf::from("perfsuite/.work").join(format!("spans-{w}-{}.tsv", args.seed));
    tracer
        .write(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    report.shape("spans", tracer.spans.len());
    report.shape("spans_file", out.display());
    setup.finish()?;
    Ok(report)
}

/// One epoch of `cdrib_core::train_model`'s step loop with a span around
/// each layer call; with an off tracer it records nothing.
pub fn traced_epoch(t: &mut Trainer, scenario: &CdrScenario, tr: &mut Tracer, e: u64, losses: &mut Vec<f32>) {
    let root = tr.open("train.epoch", None, e);
    let s = tr.open("data.batches", root, e);
    t.model
        .make_batches_into(scenario, &mut t.rng, &mut t.xb, &mut t.yb)
        .expect("batches");
    tr.close(s);
    for (xb, yb) in t.xb.iter().zip(t.yb.iter()) {
        t.model.params_mut().zero_grad();
        t.tape.reset();
        let s = tr.open("core.forward", root, e);
        let (loss, _) = t.model.loss(&mut t.tape, xb, yb, &mut t.rng).expect("loss");
        tr.close(s);
        let s = tr.open("tensor.backward", root, e);
        losses.push(t.tape.backward(loss, t.model.params_mut()).expect("backward"));
        tr.close(s);
        let s = tr.open("tensor.optim", root, e);
        t.model.params_mut().clip_grad_norm(20.0);
        use cdrib_tensor::Optimizer;
        t.opt.step(t.model.params_mut()).expect("adam");
        tr.close(s);
    }
    tr.close(root);
}

/// Training and eval layers on the workload's dataset. Returns the tracing
/// overhead of the epoch loop, in percent.
fn train_section(w: &str, args: &Args, tr: &mut Tracer, report: &mut Report) -> Result<f64, String> {
    let scenario = train::scenario(w);
    let mut trainer = Trainer::new(&scenario);
    let mut losses = Vec::with_capacity(1 << 12);
    let mut off = Tracer::new(false);
    traced_epoch(&mut trainer, &scenario, &mut off, 0, &mut losses);
    let a0 = allocation_count();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    // Alternate untraced and traced epochs so drift hits both alike.
    for e in 0..PROBE_EPOCHS as u64 {
        let (_, ns) = timed(|| traced_epoch(&mut trainer, &scenario, &mut off, e, &mut losses));
        untraced_ms.push(ns / 1e6);
        let (_, ns) = timed(|| traced_epoch(&mut trainer, &scenario, tr, e, &mut losses));
        traced_ms.push(ns / 1e6);
    }
    // Every traced epoch's span pushes fit the pre-sized span buffer, so the
    // allocations counted are the training loop's own.
    let allocs = (allocation_count() - a0) as f64 / (2 * PROBE_EPOCHS) as f64;
    report.check(losses.iter().all(|l| l.is_finite()), || {
        "a training loss was not finite".into()
    });
    let stage = |name: &str| median(&tr.per_request_ns(name)) / 1e6;
    let epoch_ms = median(&tr.per_request_ns("train.epoch")) / 1e6;
    let stages = stage("data.batches") + stage("core.forward") + stage("tensor.backward") + stage("tensor.optim");
    report.metric("train.epoch_ms", epoch_ms, "ms");
    report.metric("data.batches_ms", stage("data.batches"), "ms");
    report.metric("core.forward_ms", stage("core.forward"), "ms");
    report.metric("tensor.backward_ms", stage("tensor.backward"), "ms");
    report.metric("tensor.optim_ms", stage("tensor.optim"), "ms");
    report.metric("train.unattributed_ms", median(&tr.self_ns("train.epoch")) / 1e6, "ms");
    report.check((stages - epoch_ms).abs() <= 0.1 * epoch_ms, || {
        format!("train stages sum to {stages:.3} ms against a {epoch_ms:.3} ms epoch (more than 10% apart)")
    });
    report.metric("train.allocs_per_epoch", allocs, "count");
    let (_, serial) = train::spawn_role("train-serial", args, &[("CDRIB_NUM_THREADS", "1")])?;
    report.metric("train.epoch_ms.serial", train::get(&serial, "epoch_ms"), "ms");

    let scorer = trainer
        .model
        .infer_embeddings()
        .map_err(|e| e.to_string())?
        .into_scorer();
    let timed_scorer = TimedScorer {
        inner: &scorer,
        samples: std::sync::Mutex::new(Vec::with_capacity(1 << 16)),
    };
    let s = tr.open("eval.pass", None, 0);
    train::cold_mrr(&timed_scorer, &scenario, args.seed);
    tr.close(s);
    let samples = timed_scorer.samples.into_inner().expect("no panics while sampling");
    let ns: u64 = samples.iter().map(|s| s.0).sum();
    let candidates: usize = samples.iter().map(|s| s.1).sum();
    report.metric("eval.pass_ms", median(&tr.per_request_ns("eval.pass")) / 1e6, "ms");
    report.metric(
        "eval.score_ns_per_candidate",
        ns as f64 / candidates.max(1) as f64,
        "ns",
    );
    report.metric("eval.cases", samples.len() as f64, "count");
    report.metric(
        "eval.candidates_per_case",
        candidates as f64 / samples.len().max(1) as f64,
        "count",
    );
    report.attempted += 2 * PROBE_EPOCHS as u64 + 1;
    Ok(100.0 * (median(&traced_ms) - median(&untraced_ms)) / median(&untraced_ms))
}

/// Front end, wire codec and engine layers against the workload's server
/// and in-process engine. Returns the tracing overhead of the in-process
/// request replay, in percent.
fn serving_section(
    setup: &mut ServingSetup,
    args: &Args,
    seconds: Duration,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let server = setup.start_server()?;
    let users = setup.users();
    let rate = crate::NOMINAL_RATE;
    let span = seconds.mul_f64(0.25).max(Duration::from_secs(1));

    // Open-loop replay at the nominal rate.
    let due = crate::stats::poisson_schedule(args.seed, "trace-reads", rate, span);
    let reads = serving::read_mix(args.seed, "trace-mix", users, due.len());
    let before = server.stats()?;
    let phase = serving::open_loop(&server.addr, &reads, &due, usize::MAX)?;
    let after = server.stats()?;
    let served = (after.served - before.served) as f64;
    let batches = (after.batches - before.batches).max(1) as f64;
    let batch_size_mean = served / batches;
    let shed = (after.shed - before.shed) as f64;
    report.metric("net.batch_size_mean", batch_size_mean, "count");
    report.metric(
        "net.shed_ratio",
        shed / (shed + (after.accepted - before.accepted) as f64).max(1.0),
        "ratio",
    );
    let mut late = phase.late_us.clone();
    late.sort_by(f64::total_cmp);
    report.metric("gen.late_us_p50", percentile(&late, 0.5), "us");
    report.metric("gen.late_us_p99", percentile(&late, 0.99), "us");
    report.attempted += phase.reads_sent;
    report.failed += phase.failed();

    // Closed loop: one connection, one request in flight.
    let probe = &reads[..PROBE_REQUESTS.min(reads.len())];
    let (mut client, _) = Client::connect(server.addr.as_str()).map_err(|e| e.to_string())?;
    let mut wire_replies: Vec<Vec<Recommendation>> = Vec::with_capacity(probe.len());
    for (i, r) in probe.iter().enumerate() {
        let s = tr.open("net.round_trip", None, i as u64);
        let reply = client.recommend(i as u64, r).map_err(|e| e.to_string())?;
        tr.close(s);
        match reply {
            ServerMsg::Recommendations(ok) => wire_replies.push(ok.recs),
            other => return Err(format!("closed loop: unexpected reply {other:?}")),
        }
    }
    drop(client);
    report.attempted += probe.len() as u64;
    let closed_loop_p50 = median(&tr.per_request_ns("net.round_trip")) / 1e3;
    report.metric("net.closed_loop_p50_us", closed_loop_p50, "us");
    server.stop()?;

    // Wire codec and engine, in process, over the same requests.
    let engine = &mut setup.reference;
    let epoch = engine.epoch();
    let mut frames = Vec::new();
    let mut buf = Vec::new();
    let mut recs: Vec<Vec<Recommendation>> = vec![Vec::new(); probe.len()];
    let s = tr.open("proto.req_encode", None, 0);
    for (i, r) in probe.iter().enumerate() {
        serving::encode_read(&mut frames, i as u64, r);
    }
    tr.close(s);
    let req_bytes = frames.len() / probe.len();
    let s = tr.open("proto.req_decode", None, 0);
    let mut reader = FrameReader::new();
    reader.push_bytes(&frames);
    let mut decoded = 0usize;
    while let Some(body) = reader.next_frame().map_err(|e| e.to_string())? {
        std::hint::black_box(proto::decode_client(body).map_err(|e| e.to_string())?);
        decoded += 1;
    }
    tr.close(s);
    for (i, r) in probe.iter().enumerate() {
        let s = tr.open("recommender.request", None, i as u64);
        engine.recommend(r, &mut recs[i]).map_err(|e| e.to_string())?;
        tr.close(s);
    }
    let s = tr.open("proto.resp_encode", None, 0);
    for (i, list) in recs.iter().enumerate() {
        proto::encode_recommendations_into(&mut buf, i as u64, epoch, list);
    }
    tr.close(s);
    let resp_bytes = buf.len() / probe.len();
    let s = tr.open("proto.resp_decode", None, 0);
    let mut reader = FrameReader::new();
    reader.push_bytes(&buf);
    while let Some(body) = reader.next_frame().map_err(|e| e.to_string())? {
        std::hint::black_box(proto::decode_server(body).map_err(|e| e.to_string())?);
    }
    tr.close(s);
    report.check(decoded == probe.len(), || {
        format!("decoded {decoded} of {} frames", probe.len())
    });
    let differ = wire_replies
        .iter()
        .zip(&recs)
        .filter(|(a, b)| !serving::bitwise_equal(a, b))
        .count();
    report.check(differ == 0, || {
        format!("{differ} closed-loop replies differ from the reference engine")
    });
    report.failed += differ as u64;
    let per_op = |name: &str| mean(&tr.per_request_ns(name)) / probe.len() as f64;
    let (req_enc, req_dec) = (per_op("proto.req_encode"), per_op("proto.req_decode"));
    let (resp_enc, resp_dec) = (per_op("proto.resp_encode"), per_op("proto.resp_decode"));
    report.metric("proto.req_encode_ns", req_enc, "ns");
    report.metric("proto.req_decode_ns", req_dec, "ns");
    report.metric("proto.resp_encode_ns", resp_enc, "ns");
    report.metric("proto.resp_decode_ns", resp_dec, "ns");
    report.metric("proto.resp_bytes", resp_bytes as f64, "bytes");
    let request_us = median(&tr.per_request_ns("recommender.request")) / 1e3;
    let candidates = mean(
        &probe
            .iter()
            .map(|r| engine.catalogue_size(r.direction.target) as f64)
            .collect::<Vec<_>>(),
    );
    report.metric("recommender.request_us", request_us, "us");
    report.metric("recommender.candidates_per_request", candidates, "count");
    report.metric("recommender.ns_per_candidate", request_us * 1e3 / candidates, "ns");

    // Coalesced batches at the observed mean batch size, at the server's
    // worker count and serially.
    let size = (batch_size_mean.round() as usize).clamp(1, probe.len());
    let workers = ServerConfig::default().workers;
    let (mut responses, mut outcomes) = (Vec::new(), Vec::new());
    for (name, w) in [("recommender.batch", workers), ("recommender.batch.serial", 1)] {
        for (b, chunk) in probe.chunks_exact(size).enumerate() {
            let s = tr.open(name, None, b as u64);
            engine.recommend_batch_outcomes(chunk, &mut responses, &mut outcomes, w);
            tr.close(s);
        }
    }
    report.metric(
        "recommender.batch_us",
        median(&tr.per_request_ns("recommender.batch")) / 1e3,
        "us",
    );
    report.metric(
        "recommender.batch_us.serial",
        median(&tr.per_request_ns("recommender.batch.serial")) / 1e3,
        "us",
    );
    let n_batches = probe.len() / size;
    let a0 = allocation_count();
    for chunk in probe.chunks_exact(size) {
        engine.recommend_batch_outcomes(chunk, &mut responses, &mut outcomes, workers);
    }
    report.metric(
        "recommender.allocs_per_batch",
        (allocation_count() - a0) as f64 / n_batches.max(1) as f64,
        "count",
    );

    // Raw loopback: request- and response-sized frames echoed over TCP.
    let rtt_us = loopback_rtt_us(req_bytes, resp_bytes, probe.len())?;
    report.metric("net.loopback_rtt_us", rtt_us, "us");
    report.metric(
        "net.residual_us",
        closed_loop_p50 - rtt_us - (req_enc + req_dec + resp_enc + resp_dec) / 1e3 - request_us,
        "us",
    );

    // Tracing overhead: the in-process request path, untraced then traced.
    let mut replay = |tr: &mut Tracer| -> Result<f64, String> {
        let t = Instant::now();
        let mut out = Vec::new();
        for (i, r) in probe.iter().enumerate() {
            let s = tr.open("replay.request", None, i as u64);
            frames.clear();
            serving::encode_read(&mut frames, i as u64, r);
            engine.recommend(r, &mut out).map_err(|e| e.to_string())?;
            buf.clear();
            proto::encode_recommendations_into(&mut buf, i as u64, epoch, &out);
            tr.close(s);
        }
        Ok(t.elapsed().as_nanos() as f64)
    };
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        untraced.push(replay(&mut off)?);
        traced.push(replay(tr)?);
    }
    Ok(100.0 * (median(&traced) - median(&untraced)) / median(&untraced))
}

/// Median round trip of `n` request-sized writes answered by
/// response-sized writes over a raw loopback connection.
fn loopback_rtt_us(req: usize, resp: usize, n: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let (mut inb, outb) = (vec![0u8; req], vec![0u8; resp]);
            for _ in 0..n {
                conn.read_exact(&mut inb)?;
                conn.write_all(&outb)?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        let (outb, mut inb) = (vec![1u8; req], vec![0u8; resp]);
        let mut rtts = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            conn.write_all(&outb).map_err(|e| e.to_string())?;
            conn.read_exact(&mut inb).map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        Ok(median(&rtts))
    })
}

/// The delta path, artifact open and log recovery, on the workload's engine
/// and [`serving::delta_mix`]. The recovered engine must serve exactly the
/// live engine's top-K.
fn delta_section(setup: &ServingSetup, args: &Args, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let deltas = serving::delta_mix(args.seed, &setup.scenario, PROBE_DELTAS);

    let mut open_ms = Vec::new();
    let mut engine = None;
    for i in 0..3 {
        let s = tr.open("artifact.open", None, i);
        engine = Some(Recommender::from_serve_v2_file_online(&setup.base).map_err(|e| e.to_string())?);
        tr.close(s);
    }
    open_ms.extend(tr.per_request_ns("artifact.open").iter().map(|ns| ns / 1e6));
    report.metric("artifact.open_ms", median(&open_ms), "ms");
    let mut engine = engine.expect("opened three times");

    let mut inference = cdrib_core::InferenceModel::from_model(&setup.model);
    inference.enable_incremental().map_err(|e| e.to_string())?;
    let mut graphs = [setup.scenario.x.train.clone(), setup.scenario.y.train.clone()];
    let mut effect = DeltaEffect::new();
    let mut rows = Vec::new();
    let wal_path = setup.dir.join("probe.wal");
    let mut wal = DeltaWal::create(&wal_path, 1).map_err(|e| e.to_string())?;
    for (i, (domain, delta)) in deltas.iter().enumerate() {
        let i = i as u64;
        let s = tr.open("recommender.apply_delta", None, i);
        engine.apply_delta(*domain, delta).map_err(|e| e.to_string())?;
        tr.close(s);
        let graph = &mut graphs[(*domain == DomainId::Y) as usize];
        let s = tr.open("graph.apply_delta", None, i);
        graph.apply_delta_into(delta, &mut effect).map_err(|e| e.to_string())?;
        tr.close(s);
        let s = tr.open("infer.reencode", None, i);
        let re = inference
            .apply_delta(*domain, graph, &effect)
            .map_err(|e| e.to_string())?;
        tr.close(s);
        rows.push((re.users_reencoded + re.items_reencoded) as f64);
        let s = tr.open("wal.append", None, i);
        wal.append(*domain, delta).map_err(|e| e.to_string())?;
        tr.close(s);
        if i % 15 == 14 {
            let s = tr.open("wal.sync", None, i);
            wal.sync().map_err(|e| e.to_string())?;
            tr.close(s);
        }
    }
    drop(wal);
    let us = |name: &str| mean(&tr.per_request_ns(name)) / 1e3;
    let (whole, graph_us, reencode_us) = (
        us("recommender.apply_delta"),
        us("graph.apply_delta"),
        us("infer.reencode"),
    );
    report.metric("graph.apply_delta_us", graph_us, "us");
    report.metric("infer.reencode_us", reencode_us, "us");
    report.metric("infer.rows_reencoded", mean(&rows), "count");
    report.metric("recommender.patch_us", whole - graph_us - reencode_us, "us");
    report.metric("wal.append_us", us("wal.append"), "us");
    let log_bytes = std::fs::metadata(&wal_path).map_err(|e| e.to_string())?.len();
    report.metric("wal.record_bytes", log_bytes as f64 / deltas.len() as f64, "bytes");
    report.metric("wal.sync_us", median(&tr.per_request_ns("wal.sync")) / 1e3, "us");

    let s = tr.open("wal.recover", None, 0);
    let (mut recovered, recovery) = Recommender::recover(&setup.base, &wal_path).map_err(|e| e.to_string())?;
    tr.close(s);
    report.metric("wal.recover_ms", median(&tr.per_request_ns("wal.recover")) / 1e6, "ms");
    report.check(recovery.replayed == deltas.len(), || {
        format!(
            "recovery replayed {} of {} logged deltas",
            recovery.replayed,
            deltas.len()
        )
    });
    report.check(recovered.epoch() == engine.epoch(), || {
        format!("recovered epoch {} != live epoch {}", recovered.epoch(), engine.epoch())
    });
    report.attempted += 2 * deltas.len() as u64;

    // Sampled users of both directions over the grown user ranges, plus
    // every erased user, asked of the live and the recovered engine.
    let grown = (
        engine.seen_graph(DomainId::X).n_users(),
        engine.seen_graph(DomainId::Y).n_users(),
    );
    let mut probe = serving::read_mix(args.seed, "recovery", grown, 200);
    probe.extend(engine.erased_users(DomainId::X).iter().map(|&user| Request {
        direction: Direction::X_TO_Y,
        user,
        k: serving::K,
    }));
    let (mut live, mut replayed) = (Vec::new(), Vec::new());
    let mut differ = 0u64;
    for r in &probe {
        engine.recommend(r, &mut live).map_err(|e| e.to_string())?;
        recovered.recommend(r, &mut replayed).map_err(|e| e.to_string())?;
        if !serving::bitwise_equal(&live, &replayed) {
            differ += 1;
        }
    }
    report.check(differ == 0, || {
        format!(
            "{differ} of {} recovered top-K lists differ from the live engine",
            probe.len()
        )
    });
    report.shape("recovery_probe_requests", probe.len());
    report.attempted += probe.len() as u64;
    report.failed += differ;
    Ok(())
}
