//! `serve_replay`: an in-process `amjs serve` daemon on Intrepid BGP
//! (BF 0.5, W 2, harness settings, shipped cadence defaults), fed the
//! harness's default month trace (generator seed [`SERVE_TRACE_SEED`])
//! open-loop over TCP. The trace is the same for every `--seed`, which
//! sets the what-if stream's phase against the mutation stream: seeded
//! traces moved what-if latency and recovery time by a third between
//! seeds.
//!
//! Per replay:
//! 1. set-up: bind, start the daemon (genesis snapshot), first `PING`;
//! 2. one connection sends the trace as `ADVANCE`/`SUBMIT` commands at
//!    [`MUTATION_PERIOD`] intervals while a second sends `WHATIF` every
//!    [`WHATIF_PERIOD`]; the subject of each what-if is the last job
//!    whose `SUBMIT` was due at least [`WHATIF_LAG`] earlier, so every
//!    run with the same seed asks the same questions;
//! 3. after the last ACK: `HASH`, then a crash copy of the state dir
//!    holding the WAL and the genesis snapshot only, so recovery
//!    replays the whole log;
//! 4. `SHUTDOWN`, then `amjs_serve::recover` on the crash copy;
//! 5. the same command stream replayed in-process through `Command`,
//!    `LiveScheduler` and `WalWriter`, [`INPROC_REPS`] times.
//!
//! `throughput_per_s` is the mutations per second of the fastest
//! in-process replay (the daemon's engine path without the network);
//! `request_p50_ms` is the median `WHATIF` latency, timed from when
//! each was due. Under `--trace 1` the `core.*` layers come from a
//! profiled batch simulation of the same trace under the daemon's
//! policy, since `LiveScheduler` takes no profiler; the daemon's own
//! layers go into the run details and tables.
//!
//! Correct means the daemon's `HASH` equals the in-process replay's
//! state hash, which equals the recovered scheduler's, every mutation
//! reply is the one the stream implies, and every `WHATIF` reply parses.

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use amjs_core::{
    BackfillMode, LiveScheduler, MachineSpec, PolicyParams, PresetName, RunSpec, SimulationBuilder,
    WorkloadSource,
};
use amjs_obs::expo::{shared_stats, SharedStats};
use amjs_obs::Histogram;
use amjs_platform::BgpCluster;
use amjs_serve::{
    read_frame, read_wal, recover, run_daemon, write_frame, Command, ServeConfig, ServeError,
    ServeReport, WalWriter,
};
use amjs_sim::{SimDuration, SimTime, SnapshotStore};
use amjs_workload::{Job, JobId, WorkloadSpec};

use crate::openloop::{drive, Lateness};
use crate::report::Metrics;
use crate::sims;
use crate::stats::{median, quantile, tail_per_mille};
use crate::trace::{span_rows, LayerTable, Tracer};
use crate::{Args, Outcome};

/// Mutations go out 1 ms apart (1,000 cmd/s).
pub const MUTATION_PERIOD: Duration = Duration::from_millis(1);
/// What-ifs go out 40 ms apart (25/s), at a seeded phase within the
/// period. At 100/s, and on a congested host at 50/s, stalls left four
/// what-ifs outstanding and the daemon shed the next with `BUSY`.
pub const WHATIF_PERIOD: Duration = Duration::from_millis(40);
/// Generator seed of the replayed month: the experiment harness's
/// default.
pub const SERVE_TRACE_SEED: u64 = 42;
/// A what-if asks about a job whose `SUBMIT` was due this much earlier.
pub const WHATIF_LAG: Duration = Duration::from_millis(50);
/// Speculation horizon of every what-if (one simulated day).
pub const WHATIF_HORIZON_SECS: i64 = 86_400;
/// A reply slower than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Daemon start-ups before each replay, beyond the replay's own;
/// `setup_s` is the median over all of them.
const SETUPS_PER_REPLAY: usize = 6;
/// Encode/decode repetitions on the final state (per-layer run).
const CODEC_REPS: usize = 9;
/// `recover` runs per replay.
const RECOVER_REPS: usize = 3;
/// Untraced in-process replays per daemon replay.
pub const INPROC_REPS: usize = 6;

/// The daemon's scheduler: Intrepid BGP under the harness settings.
fn live_scheduler() -> LiveScheduler<BgpCluster> {
    LiveScheduler::from_builder(
        SimulationBuilder::new(BgpCluster::intrepid(), Vec::new())
            .policy(PolicyParams::new(0.5, 2))
            .backfill(BackfillMode::Easy)
            .easy_protected(Some(1))
            .backfill_depth(Some(16))
            .label("serve-replay".to_string()),
    )
}

/// A trace as daemon commands: per job in submission order, an
/// `ADVANCE` to its submit time (when the clock moves) and its `SUBMIT`.
pub fn command_stream(jobs: &[Job]) -> Vec<Command> {
    let mut jobs: Vec<&Job> = jobs.iter().collect();
    jobs.sort_by_key(|j| (j.submit, j.id));
    let mut now = SimTime::ZERO;
    let mut out = Vec::with_capacity(2 * jobs.len());
    for j in jobs {
        if j.submit > now {
            out.push(Command::Advance((j.submit - now).as_secs()));
            now = j.submit;
        }
        out.push(Command::Submit {
            nodes: j.nodes,
            wall_secs: j.walltime.as_secs(),
            run_secs: Some(j.runtime.as_secs()),
            user: j.user,
        });
    }
    out
}

/// Due offsets of the mutation stream.
fn mutation_due(i: usize) -> Duration {
    MUTATION_PERIOD * i as u32
}

/// The what-if schedule for a command stream: `(due, job id)` every
/// [`WHATIF_PERIOD`] from `phase` while mutations are still going out,
/// asking about the last job submitted at least [`WHATIF_LAG`] before.
/// Job ids are the daemon's: the k-th `SUBMIT` of a fresh daemon gets
/// id k.
pub fn whatif_schedule(cmds: &[Command], phase: Duration) -> Vec<(Duration, u64)> {
    let mut submits = Vec::new(); // (due, id)
    for (i, c) in cmds.iter().enumerate() {
        if matches!(c, Command::Submit { .. }) {
            submits.push((mutation_due(i), submits.len() as u64));
        }
    }
    let end = mutation_due(cmds.len().saturating_sub(1));
    let mut out = Vec::new();
    let mut due = phase;
    let mut k = 0;
    while due <= end {
        while k < submits.len() && submits[k].0 + WHATIF_LAG <= due {
            k += 1;
        }
        if k > 0 {
            out.push((due, submits[k - 1].1));
        }
        due += WHATIF_PERIOD;
    }
    out
}

/// Apply one mutation as the daemon does; returns the events the clock
/// advance handled.
fn apply(sched: &mut LiveScheduler<BgpCluster>, cmd: &Command) -> u64 {
    match cmd {
        Command::Submit {
            nodes,
            wall_secs,
            run_secs,
            user,
        } => {
            sched
                .submit(
                    *nodes,
                    SimDuration::from_secs(*wall_secs),
                    run_secs.map(SimDuration::from_secs),
                    *user,
                )
                .expect("trace jobs fit the machine");
            0
        }
        Command::Advance(secs) => sched.advance_to(sched.now() + SimDuration::from_secs(*secs)),
        other => panic!("not a mutation: {other:?}"),
    }
}

/// The replies the stream implies, in order.
fn expected_replies(cmds: &[Command]) -> Vec<String> {
    let mut t = 0i64;
    let mut id = 0u64;
    cmds.iter()
        .map(|c| match c {
            Command::Advance(s) => {
                t += s;
                format!("OK T={t}")
            }
            _ => {
                id += 1;
                format!("OK ID={}", id - 1)
            }
        })
        .collect()
}

/// Does a `WHATIF` reply parse? `OK START=<t>[ LIVE]` or
/// `OK NOSTART WITHIN=<secs>`.
pub fn whatif_reply_parses(reply: &str) -> bool {
    let num = |s: &str| s.parse::<i64>().is_ok();
    let toks: Vec<&str> = reply.split(' ').collect();
    match toks.as_slice() {
        ["OK", start] | ["OK", start, "LIVE"] => start.strip_prefix("START=").is_some_and(num),
        ["OK", "NOSTART", within] => within.strip_prefix("WITHIN=").is_some_and(num),
        _ => false,
    }
}

struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: std::io::BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn ask(&mut self, cmd: &str) -> String {
        write_frame(&mut self.writer, cmd.as_bytes()).expect("send to daemon");
        let payload = read_frame(&mut self.reader).expect("reply from daemon");
        String::from_utf8_lossy(&payload).into_owned()
    }
}

struct Daemon {
    addr: std::net::SocketAddr,
    handle: thread::JoinHandle<Result<ServeReport, ServeError>>,
    stats: SharedStats,
    client: Client,
}

/// Start a daemon over a fresh `dir` and wait for its first `PONG`.
fn start_daemon(dir: &Path) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("bound address");
    let stats = shared_stats();
    let mut cfg = ServeConfig::new(dir);
    cfg.stats = Some(stats.clone());
    let handle = thread::spawn(move || run_daemon(listener, live_scheduler, false, cfg));
    let mut client = Client::connect(addr).expect("connect to daemon");
    assert_eq!(client.ask("PING"), "OK PONG");
    Daemon {
        addr,
        handle,
        stats,
        client,
    }
}

impl Daemon {
    fn shutdown(mut self) -> ServeReport {
        assert_eq!(self.client.ask("SHUTDOWN"), "OK BYE");
        self.handle
            .join()
            .expect("daemon thread panicked")
            .expect("daemon shut down cleanly")
    }

    /// The daemon's histogram `name` (with label value `verb`, if any).
    fn hist(&self, name: &str, verb: Option<&str>) -> Histogram {
        let stats = self.stats.lock().expect("stats lock poisoned");
        stats
            .hists
            .iter()
            .find(|h| h.name == name && h.label.as_ref().map(|(_, v)| v.as_str()) == verb)
            .map(|h| h.hist.clone())
            .unwrap_or_else(Histogram::latency)
    }
}

/// Parse `OK HASH=<hex> INDEX=<n> T=<t>` into (hash, index).
fn parse_hash(reply: &str) -> Option<(u64, u64)> {
    let mut hash = None;
    let mut index = None;
    for tok in reply.split(' ') {
        if let Some(h) = tok.strip_prefix("HASH=") {
            hash = u64::from_str_radix(h, 16).ok();
        } else if let Some(i) = tok.strip_prefix("INDEX=") {
            index = i.parse().ok();
        }
    }
    Some((hash?, index?))
}

/// The in-process replay of one stream.
struct Inproc {
    wall_s: f64,
    hash: u64,
    index: u64,
    events: u64,
    final_state: LiveScheduler<BgpCluster>,
}

/// Replay `rendered` commands through `Command::parse`, the live apply
/// path, `state_hash` and `WalWriter::append`, as the daemon's engine
/// thread does per mutation. With a tracer, each call is a span; the
/// spans of one command share the request id `replay << 32 | sequence`.
fn replay_inproc(
    rendered: &[String],
    wal: &Path,
    mut tracer: Option<&mut Tracer>,
    replay: u64,
) -> Inproc {
    let mut sched = live_scheduler();
    let mut writer = WalWriter::create(wal, sched.fingerprint(), 0).expect("create bench wal");
    let mut events = 0;
    let start = Instant::now();
    let root = tracer
        .as_mut()
        .map(|t| t.open("replay", None, replay << 32));
    for (seq, text) in rendered.iter().enumerate() {
        let seq = (replay << 32) | seq as u64;
        match tracer.as_mut() {
            None => {
                let cmd = Command::parse(text).expect("stream commands parse");
                let at = sched.now().as_secs();
                events += apply(&mut sched, &cmd);
                let hash = sched.state_hash();
                writer
                    .append(0, at, hash, &cmd.render())
                    .expect("append to bench wal");
            }
            Some(t) => {
                let parent = t.open("replay.command", root, seq);
                let p = Some(parent);
                let cmd = t.time("serve.proto.parse", p, seq, || Command::parse(text));
                let cmd = cmd.expect("stream commands parse");
                let at = sched.now().as_secs();
                let layer = match cmd {
                    Command::Advance(_) => "live.advance",
                    _ => "live.submit",
                };
                events += t.time(layer, p, seq, || apply(&mut sched, &cmd));
                let hash = t.time("live.state_hash", p, seq, || sched.state_hash());
                let line = t.time("serve.proto.render", p, seq, || cmd.render());
                t.time("serve.wal.append", p, seq, || {
                    writer.append(0, at, hash, &line)
                })
                .expect("append to bench wal");
                t.close(parent);
            }
        }
    }
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        t.close(root);
    }
    Inproc {
        wall_s: start.elapsed().as_secs_f64(),
        hash: sched.state_hash(),
        index: sched.event_index(),
        events,
        final_state: sched,
    }
}

/// Recovery split into its layers: snapshot load + decode, WAL read,
/// replay (clock advance, apply, hash cross-check per record).
struct RecoverLayers {
    wall_s: f64,
    snapshot_load_s: f64,
    wal_read_s: f64,
    replay_s: f64,
    records: u64,
    hash: u64,
}

fn recover_layers(dir: &Path) -> RecoverLayers {
    let start = Instant::now();
    let t = Instant::now();
    let store = SnapshotStore::new(dir, 1);
    let (snap_seq, payload, _) = store
        .load_latest(u64::MAX, |_| {})
        .expect("crash copy holds a snapshot");
    let mut sched = LiveScheduler::<BgpCluster>::decode(&payload).expect("snapshot decodes");
    let snapshot_load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let wal = read_wal(&dir.join("commands.wal"), Some(sched.fingerprint())).expect("wal reads");
    let wal_read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut records = 0;
    for rec in wal.records.iter().filter(|r| r.seq >= snap_seq) {
        let cmd = Command::parse(&rec.cmd).expect("wal records parse");
        let at = SimTime::from_secs(rec.time_secs);
        if at > sched.now() {
            sched.advance_to(at);
        }
        apply(&mut sched, &cmd);
        assert_eq!(sched.state_hash(), rec.state_hash, "replay diverged");
        records += 1;
    }
    let replay_s = t.elapsed().as_secs_f64();
    RecoverLayers {
        wall_s: start.elapsed().as_secs_f64(),
        snapshot_load_s,
        wal_read_s,
        replay_s,
        records,
        hash: sched.state_hash(),
    }
}

/// Everything one replay measured.
#[derive(Default)]
struct Replay {
    setup_s: f64,
    mutation_ms: Vec<f64>,
    whatif_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    busy: u64,
    err: u64,
    correct: bool,
    lateness: Lateness,
    recover_s: Vec<f64>,
    // Per-layer sources (filled under --trace 1).
    hists: Vec<(&'static str, Histogram)>,
    client_mutation_s: f64,
    /// The fastest untraced in-process replay.
    untraced_inproc_s: f64,
    traced_inproc_s: f64,
    events: u64,
    state_bytes: usize,
    encode_s: f64,
    decode_s: f64,
    whatif_start_s: Vec<f64>,
    recover: Option<RecoverLayers>,
}

/// Daemon histograms the traced run reads: (key, family, verb label).
const DAEMON_HISTS: [(&str, &str, Option<&str>); 5] = [
    ("submit", "serve_request_latency_seconds", Some("submit")),
    ("advance", "serve_request_latency_seconds", Some("advance")),
    ("whatif", "serve_whatif_latency_seconds", None),
    ("wal_append", "serve_wal_append_seconds", None),
    ("snapshot", "serve_snapshot_write_seconds", None),
];

fn one_replay(
    jobs: &[Job],
    phase: Duration,
    dir: &Path,
    trace: bool,
    tracer: &mut Tracer,
    replay: u64,
) -> Replay {
    let cmds = command_stream(jobs);
    let rendered: Vec<String> = cmds.iter().map(Command::render).collect();
    let expected = expected_replies(&cmds);
    let mutations: Vec<(Duration, String)> = rendered
        .iter()
        .enumerate()
        .map(|(i, r)| (mutation_due(i), r.clone()))
        .collect();
    let whatifs: Vec<(Duration, String)> = whatif_schedule(&cmds, phase)
        .into_iter()
        .map(|(due, id)| (due, format!("WHATIF {id} HORIZON={WHATIF_HORIZON_SECS}")))
        .collect();

    let state = dir.join("state");
    let setup_start = Instant::now();
    let mut daemon = start_daemon(&state);
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Both streams share one origin a little ahead, so neither starts late.
    let t0 = Instant::now() + Duration::from_millis(20);
    let connect = || TcpStream::connect(daemon.addr).expect("connect to daemon");
    let (mstream, wstream) = (connect(), connect());
    let (m, w) = thread::scope(|s| {
        let m = s.spawn(|| drive(mstream, t0, &mutations, REPLY_TIMEOUT));
        let w = drive(wstream, t0, &whatifs, REPLY_TIMEOUT);
        (m.join().expect("mutation connection panicked"), w)
    });
    let (m, w) = (
        m.expect("mutation stream i/o"),
        w.expect("what-if stream i/o"),
    );

    let mut r = Replay {
        setup_s,
        correct: true,
        ..Replay::default()
    };
    r.attempted = (mutations.len() + whatifs.len()) as u64;
    r.lateness = m.lateness;
    r.lateness.merge(&w.lateness);
    for ((lat, reply), want) in m.replies.iter().zip(&expected) {
        if reply != want {
            r.failed += 1;
            if reply.starts_with("BUSY") {
                r.busy += 1;
            } else if reply.starts_with("ERR") {
                r.err += 1;
            } else {
                eprintln!("mutation reply {reply:?}, expected {want:?}");
                r.correct = false;
            }
        }
        r.mutation_ms.push(lat.as_secs_f64() * 1e3);
        r.client_mutation_s += lat.as_secs_f64();
    }
    for (lat, reply) in &w.replies {
        if reply.starts_with("BUSY") {
            r.busy += 1;
            r.failed += 1;
        } else if reply.starts_with("ERR") {
            r.err += 1;
            r.failed += 1;
        } else if !whatif_reply_parses(reply) {
            eprintln!("what-if reply does not parse: {reply:?}");
            r.failed += 1;
            r.correct = false;
        }
        r.whatif_ms.push(lat.as_secs_f64() * 1e3);
    }
    let timeouts = (mutations.len() - m.replies.len()) + (whatifs.len() - w.replies.len());
    r.failed += timeouts as u64;

    // The crash copy: the WAL after the last ACK plus the genesis
    // snapshot, so recovery replays the whole log.
    let daemon_hash = parse_hash(&daemon.client.ask("HASH")).expect("HASH reply parses");
    let crash = dir.join("crash");
    let _ = std::fs::remove_dir_all(&crash);
    std::fs::create_dir_all(&crash).expect("create crash copy dir");
    std::fs::copy(state.join("commands.wal"), crash.join("commands.wal")).expect("copy wal");
    let genesis = SnapshotStore::new(&state, 1).path_for(0);
    let genesis_name = genesis.file_name().expect("snapshot file name");
    std::fs::copy(&genesis, crash.join(genesis_name)).expect("copy genesis snapshot");
    if trace {
        for (key, name, verb) in DAEMON_HISTS {
            r.hists.push((key, daemon.hist(name, verb)));
        }
    }
    let report = daemon.shutdown();
    if report.commands_applied != mutations.len() as u64 {
        eprintln!(
            "daemon applied {} commands, {} sent",
            report.commands_applied,
            mutations.len()
        );
        r.correct = false;
    }

    // Recovery leaves the crash copy as it found it (no torn tail to
    // cut), so it can be timed more than once.
    let mut recovered_hash = (0, 0);
    for _ in 0..RECOVER_REPS {
        let t = Instant::now();
        let (recovered, _wal, replayed, _epoch) =
            recover::<BgpCluster>(&crash, |_| {}).expect("crash copy recovers");
        r.recover_s.push(t.elapsed().as_secs_f64());
        recovered_hash = (recovered.state_hash(), recovered.event_index());
        if replayed != mutations.len() as u64 {
            eprintln!(
                "recovery replayed {replayed} of {} records",
                mutations.len()
            );
            r.correct = false;
        }
    }

    r.untraced_inproc_s = f64::INFINITY;
    for _ in 0..INPROC_REPS {
        let inproc = replay_inproc(&rendered, &dir.join("inproc.wal"), None, replay);
        r.untraced_inproc_s = r.untraced_inproc_s.min(inproc.wall_s);
        r.events = inproc.events;
        let inproc_hash = (inproc.hash, inproc.index);
        if daemon_hash != inproc_hash || inproc_hash != recovered_hash {
            eprintln!(
                "state hash mismatch: daemon {daemon_hash:?}, in-process {inproc_hash:?}, \
                 recovered {recovered_hash:?}"
            );
            r.correct = false;
        }
    }

    if trace {
        let traced = replay_inproc(&rendered, &dir.join("inproc.wal"), Some(tracer), replay);
        r.traced_inproc_s = traced.wall_s;
        let state = traced.final_state;
        let mut enc = Vec::with_capacity(CODEC_REPS);
        let mut dec = Vec::with_capacity(CODEC_REPS);
        for _ in 0..CODEC_REPS {
            let t = Instant::now();
            let bytes = state.encode();
            enc.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let back = LiveScheduler::<BgpCluster>::decode(&bytes).expect("state decodes");
            dec.push(t.elapsed().as_secs_f64());
            assert_eq!(back.state_hash(), state.state_hash(), "codec round trip");
            r.state_bytes = bytes.len();
        }
        r.encode_s = median(&enc);
        r.decode_s = median(&dec);
        r.whatif_start_s = whatif_probe(&cmds, phase);
        r.recover = Some(recover_layers(&crash));
        if r.recover.as_ref().map(|l| l.hash) != Some(recovered_hash.0) {
            eprintln!("layered recovery disagrees with recover()");
            r.correct = false;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    r
}

/// `LiveScheduler::whatif_start` on the same subjects at the same points
/// of the stream the daemon was asked at, in-process; seconds per call.
fn whatif_probe(cmds: &[Command], phase: Duration) -> Vec<f64> {
    let schedule = whatif_schedule(cmds, phase);
    let mut sched = live_scheduler();
    let mut next = 0;
    let mut out = Vec::with_capacity(schedule.len());
    for (i, cmd) in cmds.iter().enumerate() {
        apply(&mut sched, cmd);
        while next < schedule.len() && schedule[next].0 <= mutation_due(i) {
            let id = JobId(schedule[next].1);
            let t = Instant::now();
            let answer =
                sched.whatif_start(id, None, None, SimDuration::from_secs(WHATIF_HORIZON_SECS));
            out.push(t.elapsed().as_secs_f64());
            answer.expect("what-if fork decodes");
            next += 1;
        }
    }
    out
}

/// Replays per run: as many whole replays as fit the run, counting
/// about 2.5 s per replay beyond its stream for the in-process replays,
/// recovery and daemon start and stop; at least two, so every figure
/// pools more than one daemon.
fn replays_for(seconds: f64, stream_s: f64) -> u64 {
    ((seconds / (stream_s + 2.5)).floor() as u64).max(2)
}

/// Phase of the what-if stream for workload seed `seed`: a whole number
/// of milliseconds within [`WHATIF_PERIOD`].
pub fn whatif_phase(seed: u64) -> Duration {
    let period_ms = WHATIF_PERIOD.as_millis() as u64;
    Duration::from_millis(seed % period_ms)
}

/// The batch twin of the replayed trace: the same month under the
/// daemon's policy, as the harness runs it.
fn batch_spec() -> RunSpec {
    RunSpec::new(
        "serve-trace",
        MachineSpec::intrepid(),
        WorkloadSource::Preset {
            name: PresetName::Month,
            seed: SERVE_TRACE_SEED,
            load_factor: 1.0,
        },
        PolicyParams::new(0.5, 2),
    )
}

pub fn run(args: &Args, out_dir: &Path) -> Outcome {
    let work = out_dir.join(format!("serve-{}", std::process::id()));
    let phase = whatif_phase(args.seed);
    let mut generates = Vec::new();
    let mut generate = || {
        let t = Instant::now();
        let jobs = WorkloadSpec::intrepid_month().generate(SERVE_TRACE_SEED);
        generates.push(t.elapsed().as_secs_f64());
        jobs
    };
    let jobs = generate();
    let stream_s = mutation_due(command_stream(&jobs).len()).as_secs_f64();
    let n = replays_for(args.seconds, stream_s);

    let mut setups = Vec::new();
    let mut tracer = Tracer::new();
    let mut replays = Vec::new();
    for k in 0..n {
        for i in 0..SETUPS_PER_REPLAY {
            let t = Instant::now();
            let d = start_daemon(&work.join(format!("setup-{k}-{i}")));
            setups.push(t.elapsed().as_secs_f64());
            d.shutdown();
        }
        let jobs = if k == 0 { jobs.clone() } else { generate() };
        let r = one_replay(
            &jobs,
            phase,
            &work.join(format!("replay-{k}")),
            args.trace,
            &mut tracer,
            k,
        );
        setups.push(r.setup_s);
        replays.push(r);
    }
    let _ = std::fs::remove_dir_all(&work);

    let pooled = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        replays.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let mutation_ms = pooled(|r| &r.mutation_ms);
    let whatif_ms = pooled(|r| &r.whatif_ms);
    let attempted: u64 = replays.iter().map(|r| r.attempted).sum();
    let failed: u64 = replays.iter().map(|r| r.failed).sum();
    let mut correct = replays.iter().all(|r| r.correct);
    // Each replay's mutation p99 must have at least ten samples beyond
    // it. The what-if tail is reported only as far as its samples reach
    // (see [`ladder`]).
    for n in replays.iter().map(|r| r.mutation_ms.len()) {
        if tail_per_mille(n).is_none_or(|p| p < 990) {
            eprintln!("{n} latency samples are too few for a p99");
            correct = false;
        }
    }
    let mut lateness = Lateness::default();
    for r in &replays {
        lateness.merge(&r.lateness);
    }
    let fastest_inproc = replays
        .iter()
        .map(|r| r.untraced_inproc_s)
        .fold(f64::INFINITY, f64::min);
    let mutations_per_replay = mutation_ms.len() as f64 / n as f64;

    // The daemon's user-facing figures beside the headline what-if p50.
    let mut daemon = Metrics::default();
    daemon.put("mutation_p50_ms", quantile(&mutation_ms, 0.5), "ms");
    let replay_p99: Vec<f64> = replays
        .iter()
        .map(|r| quantile(&r.mutation_ms, 0.99))
        .collect();
    daemon.put("mutation_p99_ms", median(&replay_p99), "ms");
    daemon.put("recover_s", median(&pooled(|r| &r.recover_s)), "s");
    daemon.put(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    let mut info = vec![
        ("replays".to_string(), n.to_string()),
        ("trace_seed".to_string(), SERVE_TRACE_SEED.to_string()),
        (
            "whatif_phase_ms".to_string(),
            phase.as_millis().to_string(),
        ),
        ("mutations".to_string(), mutation_ms.len().to_string()),
        ("whatifs".to_string(), whatif_ms.len().to_string()),
        (
            "gen_lag_max_ms".to_string(),
            (lateness.max.as_secs_f64() * 1e3).to_string(),
        ),
        ("late_sends".to_string(), lateness.late.to_string()),
        ("daemon".to_string(), daemon.to_json()),
        ("mutation_ms".to_string(), ladder(&mutation_ms)),
        ("whatif_ms".to_string(), ladder(&whatif_ms)),
        (
            "per_replay".to_string(),
            format!(
                "[{}]",
                replays
                    .iter()
                    .map(|r| format!(
                        "{{\"late\":{},\"inproc_s\":{},\"mutation_ms\":{},\"whatif_ms\":{},\"recover_s\":{}}}",
                        r.lateness.late,
                        r.untraced_inproc_s,
                        ladder(&r.mutation_ms),
                        ladder(&r.whatif_ms),
                        median(&r.recover_s)
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let mut metrics = Metrics::default();
    let mut tables = Vec::new();
    if !args.trace {
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        metrics.put(
            "throughput_per_s",
            mutations_per_replay / fastest_inproc,
            "1/s",
        );
        metrics.put("request_p50_ms", quantile(&whatif_ms, 0.5), "ms");
    } else {
        metrics.put("workload.generate_s", median(&generates), "s");
        let specs = [batch_spec()];
        let untraced = sims::run_direct(&specs, false);
        let traced = sims::run_direct(&specs, true);
        if traced.digest() != untraced.digest() {
            eprintln!("the batch twin's traced and untraced outputs differ");
            correct = false;
        }
        tables.push(sims::core_metrics(
            "serve_replay batch twin (traced)",
            &traced,
            untraced.wall_s(),
            &mut metrics,
        ));
        let mut layers = Metrics::default();
        tables.extend(layer_metrics(&replays, &tracer, &lateness, &mut layers));
        info.push(("layers".to_string(), layers.to_json()));
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        tables,
        tracer,
        info,
    }
}

/// A latency sample's shape as a JSON object: count, mean, and the
/// quantile ladder up to the highest percentile with ten samples beyond.
fn ladder(ms: &[f64]) -> String {
    let mut o = amjs_obs::json::ObjWriter::new();
    o.u64("n", ms.len() as u64)
        .f64("mean", ms.iter().sum::<f64>() / ms.len().max(1) as f64);
    for (name, q) in [
        ("p50", 0.5),
        ("p75", 0.75),
        ("p90", 0.9),
        ("p95", 0.95),
        ("p98", 0.98),
        ("p99", 0.99),
    ] {
        if tail_per_mille(ms.len()).is_some_and(|p| p as f64 >= q * 1000.0) {
            o.f64(name, quantile(ms, q));
        }
    }
    o.finish()
}

fn layer_metrics(
    replays: &[Replay],
    tracer: &Tracer,
    lateness: &Lateness,
    m: &mut Metrics,
) -> Vec<LayerTable> {
    let sum = |f: &dyn Fn(&Replay) -> f64| -> f64 { replays.iter().map(f).sum() };
    let merged = |key: &str| -> Histogram {
        let mut h = Histogram::latency();
        for r in replays {
            if let Some((_, x)) = r.hists.iter().find(|(k, _)| *k == key) {
                h.merge(x);
            }
        }
        h
    };
    let q = |h: &Histogram, p: f64| h.quantile(p).unwrap_or(0.0);

    // In-process replay table: its rows sum to the traced replay wall.
    let rows = span_rows(tracer.spans());
    let row = |name: &str| rows.iter().find(|r| r.name == name).cloned();
    let traced_wall = sum(&|r| r.traced_inproc_s);
    let mut replay = LayerTable::new("serve_replay in-process replay", traced_wall);
    for name in [
        "serve.proto.parse",
        "live.submit",
        "live.advance",
        "live.state_hash",
        "serve.proto.render",
        "serve.wal.append",
        "replay.command",
        "replay",
    ] {
        if let Some(r) = row(name) {
            replay.push(r);
        }
    }
    let busy = |name: &str| row(name).map_or(0.0, |r| r.total_s);
    let count = |name: &str| row(name).map_or(0, |r| r.count) as f64;

    // Daemon-side decomposition of mutation latency (totals, seconds).
    let submit = merged("submit");
    let advance = merged("advance");
    let whatif = merged("whatif");
    let wal = merged("wal_append");
    let snapshot = merged("snapshot");
    let daemon_ack = submit.sum() + advance.sum();
    let apply = busy("live.submit") + busy("live.advance") + busy("live.state_hash");
    let mut daemon = LayerTable::new("serve_replay daemon mutations (enqueue to ACK)", daemon_ack);
    daemon.push_interval(
        "live.apply (in-process estimate)",
        count("replay.command") as u64,
        apply,
    );
    daemon.push_interval("serve.daemon.wal_append", wal.count(), wal.sum());
    daemon.push_interval("serve.snapshot.write", snapshot.count(), snapshot.sum());

    let layers = |f: fn(&RecoverLayers) -> f64| -> f64 {
        replays
            .iter()
            .filter_map(|r| r.recover.as_ref())
            .map(f)
            .sum()
    };
    let mut recovery = LayerTable::new(
        "serve_replay recovery, split into its layers",
        layers(|l| l.wall_s),
    );
    recovery.push_interval(
        "serve.recover.snapshot_load",
        replays.len() as u64,
        layers(|l| l.snapshot_load_s),
    );
    recovery.push_interval(
        "serve.recover.wal_read",
        replays.len() as u64,
        layers(|l| l.wal_read_s),
    );
    recovery.push_interval(
        "serve.recover.replay",
        layers(|l| l.records as f64) as u64,
        layers(|l| l.replay_s),
    );

    m.put("live.advance.busy_s", busy("live.advance"), "s");
    m.put("live.advance.count", count("live.advance"), "count");
    m.put("live.events", sum(&|r| r.events as f64), "count");
    m.put("live.submit.busy_s", busy("live.submit"), "s");
    m.put("live.state_hash_s", busy("live.state_hash"), "s");
    m.put(
        "live.encode_s",
        median(&replays.iter().map(|r| r.encode_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "live.decode_s",
        median(&replays.iter().map(|r| r.decode_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "live.state_bytes",
        median(
            &replays
                .iter()
                .map(|r| r.state_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    let starts: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.whatif_start_s.iter().copied())
        .collect();
    m.put("live.whatif_start_p50_s", quantile(&starts, 0.5), "s");
    m.put("live.whatif_start_p99_s", quantile(&starts, 0.99), "s");
    m.put("serve.proto.parse_s", busy("serve.proto.parse"), "s");
    m.put("serve.proto.render_s", busy("serve.proto.render"), "s");
    m.put("serve.wal.append_s", busy("serve.wal.append"), "s");
    m.put("serve.daemon.wal_append_s", wal.sum(), "s");
    m.put("serve.snapshot.count", snapshot.count() as f64, "count");
    m.put("serve.snapshot.write_s", snapshot.sum(), "s");
    for (name, h) in [
        ("submit", &submit),
        ("advance", &advance),
        ("whatif", &whatif),
    ] {
        m.put(&format!("serve.daemon.{name}_p50_s"), q(h, 0.5), "s");
        m.put(&format!("serve.daemon.{name}_p99_s"), q(h, 0.99), "s");
    }
    m.put(
        "serve.transport_s",
        sum(&|r| r.client_mutation_s) - daemon_ack,
        "s",
    );
    m.put("serve.unattributed_s", daemon.unattributed_s(), "s");
    m.put("serve.busy_replies", sum(&|r| r.busy as f64), "count");
    m.put("serve.err_replies", sum(&|r| r.err as f64), "count");
    m.put(
        "serve.gen_lag_max_ms",
        lateness.max.as_secs_f64() * 1e3,
        "ms",
    );
    m.put("serve.late_sends", lateness.late as f64, "count");
    m.put(
        "serve.recover.snapshot_load_s",
        layers(|l| l.snapshot_load_s),
        "s",
    );
    m.put("serve.recover.wal_read_s", layers(|l| l.wal_read_s), "s");
    m.put("serve.recover.replay_s", layers(|l| l.replay_s), "s");
    m.put(
        "serve.recover.records",
        layers(|l| l.records as f64),
        "count",
    );
    m.put(
        "serve.trace_overhead_s",
        traced_wall - sum(&|r| r.untraced_inproc_s),
        "s",
    );
    vec![replay, daemon, recovery]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whatif_subjects_come_from_the_schedule() {
        let cmds = vec![
            Command::Submit {
                nodes: 1,
                wall_secs: 60,
                run_secs: Some(30),
                user: 0,
            },
            Command::Advance(600),
        ]
        .into_iter()
        .cycle()
        .take(200)
        .collect::<Vec<_>>();
        let s = whatif_schedule(&cmds, Duration::ZERO);
        // Submits are due at 0, 2, 4, ... ms with ids 0, 1, 2, ...; the
        // first question is the first one due after the lag.
        assert!(s[0].0 >= WHATIF_LAG && s[0].0 < WHATIF_LAG + WHATIF_PERIOD);
        assert!(s.windows(2).all(|w| w[1].0 - w[0].0 == WHATIF_PERIOD));
        for (due, id) in &s {
            let submit_due = mutation_due(2 * *id as usize);
            assert!(submit_due + WHATIF_LAG <= *due);
            assert!(mutation_due(2 * (*id as usize + 1)) + WHATIF_LAG > *due);
        }
        // The same stream always asks the same questions.
        assert_eq!(s, whatif_schedule(&cmds, Duration::ZERO));
        // A phase shifts every question by the same amount.
        let phase = whatif_phase(7);
        assert_eq!(phase, Duration::from_millis(7));
        let shifted = whatif_schedule(&cmds, phase);
        assert_eq!(shifted[0].0, s[0].0 + phase);
        assert!(shifted.windows(2).all(|w| w[1].0 - w[0].0 == WHATIF_PERIOD));
    }

    #[test]
    fn streams_advance_then_submit() {
        let jobs = WorkloadSpec::small_test().generate(3);
        let cmds = command_stream(&jobs);
        let submits = cmds
            .iter()
            .filter(|c| matches!(c, Command::Submit { .. }))
            .count();
        assert_eq!(submits, jobs.len());
        assert!(cmds
            .iter()
            .all(|c| !matches!(c, Command::Advance(s) if *s <= 0)));
        let replies = expected_replies(&cmds);
        assert_eq!(
            replies.iter().filter(|r| r.starts_with("OK ID=")).count(),
            submits
        );
    }

    #[test]
    fn whatif_replies_parse() {
        assert!(whatif_reply_parses("OK START=3600"));
        assert!(whatif_reply_parses("OK START=3600 LIVE"));
        assert!(whatif_reply_parses("OK NOSTART WITHIN=86400"));
        assert!(!whatif_reply_parses("OK START=soon"));
        assert!(!whatif_reply_parses("BUSY what-if capacity"));
        assert!(!whatif_reply_parses("ERR unknown job"));
        assert!(!whatif_reply_parses("OK"));
    }
}
