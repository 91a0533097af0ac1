//! The two batch-simulation workloads.
//!
//! * `month_grid` — the paper's Fig. 3 axes, BF {1, 0.75, 0.5, 0.25, 0}
//!   × W {1, 2, 4}, over the harness's default month trace at load 1
//!   (generator seed [`GRID_TRACE_SEED`]), through `amjs_fleet::run_fleet`
//!   on one worker.
//! * `month_overload` — [`OVERLOAD_TRACES`] month traces at load factor
//!   2 under BF 0.5 / W 2, each a direct `RunSpec` execution (generator
//!   seeds from [`OVERLOAD_FIRST_SEED`]).
//!
//! The traces are the same for every `--seed`; the seed rotates the
//! order the simulations run in. A month's passes/s depends on its
//! trace: two seeded traces per run spread 16 % over five seeds, and
//! one overloaded month ranges over 2× between generator seeds. Fixed
//! traces leave only the machine's noise in the figures, and let one
//! recorded digest check the output of every seed.
//!
//! Both use the experiment-harness settings (`RunSpec::new`: EASY, one
//! protected reservation, backfill depth 16) on Intrepid BGP.
//!
//! A run is one *count cycle* followed by timed cycles. The count cycle
//! runs every input with the `amjs-obs` span profiler attached: it
//! counts real scheduling passes (the `schedule_pass` span count, which
//! leaves out calls on an empty queue), records the output digest, and
//! warms up. Three or more timed cycles then run the same inputs with
//! tracing off; `throughput_per_s` divides the real passes by their
//! best-of wall and `request_p50_ms` is the median simulation's best
//! time (see [`Best`]). Under `--trace 1` the count cycle's spans are
//! the per-layer table, and its wall minus the median timed cycle's is
//! the tracing overhead.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amjs_core::{MachineSpec, PolicyParams, PresetName, RunSpec, WorkloadSource};
use amjs_fleet::{aggregate_csv, run_fleet, validate_grid, Exec, FleetConfig, RunDigest};
use amjs_obs::{Observer, Profiler};
use amjs_sim::snapshot::fnv1a;
use amjs_workload::WorkloadSpec;

use crate::expected;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{path_rows, LayerTable, Tracer};
use crate::{Args, Outcome};

/// Generator seed of the `month_grid` trace: the experiment harness's
/// default month.
pub const GRID_TRACE_SEED: u64 = 42;
/// Month traces per `month_overload` run.
pub const OVERLOAD_TRACES: u64 = 3;
/// Generator seed of the first overload trace: the experiment
/// harness's default seed, whose load-2 month has 6,174 jobs.
pub const OVERLOAD_FIRST_SEED: u64 = 42;
const BFS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];
const WINDOWS: [usize; 3] = [1, 2, 4];
/// Set-ups before each timed cycle, beyond the first set-up of the run;
/// `setup_s` is the median of all of them.
const SETUPS_PER_CYCLE: usize = 8;
/// Timed cycles per run, at least; more while `--seconds` lasts.
const MIN_TIMED_CYCLES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    Grid,
    Overload,
}

impl SimWorkload {
    fn traces(self) -> u64 {
        match self {
            SimWorkload::Grid => 1,
            SimWorkload::Overload => OVERLOAD_TRACES,
        }
    }

    fn load_factor(self) -> f64 {
        match self {
            SimWorkload::Grid => 1.0,
            SimWorkload::Overload => 2.0,
        }
    }

    /// Generator seed of the `k`-th trace.
    fn trace_seed(self, k: u64) -> u64 {
        match self {
            SimWorkload::Grid => GRID_TRACE_SEED + k,
            SimWorkload::Overload => OVERLOAD_FIRST_SEED + k,
        }
    }

    /// The output digest recorded when the benchmark landed.
    fn expected(self) -> u64 {
        match self {
            SimWorkload::Grid => expected::MONTH_GRID,
            SimWorkload::Overload => expected::MONTH_OVERLOAD,
        }
    }

    /// The run's inputs, in execution order: the fixed set, rotated by
    /// `seed`.
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        let month = |k: u64| WorkloadSource::Preset {
            name: PresetName::Month,
            seed: self.trace_seed(k),
            load_factor: self.load_factor(),
        };
        let mut specs = Vec::new();
        for k in 0..self.traces() {
            match self {
                SimWorkload::Grid => {
                    for bf in BFS {
                        for w in WINDOWS {
                            specs.push(RunSpec::new(
                                format!("s{k}-bf{bf}-w{w}"),
                                MachineSpec::intrepid(),
                                month(k),
                                PolicyParams::new(bf, w),
                            ));
                        }
                    }
                }
                SimWorkload::Overload => specs.push(RunSpec::new(
                    format!("t{}", self.trace_seed(k)),
                    MachineSpec::intrepid(),
                    month(k),
                    PolicyParams::new(0.5, 2),
                )),
            }
        }
        let turn = (seed % specs.len() as u64) as usize;
        specs.rotate_left(turn);
        specs
    }
}

/// One simulation's measurements.
struct Cell {
    key: String,
    start: Instant,
    end: Instant,
    events: u64,
    passes_all: u64,
    backfilled: u64,
    /// Profiler aggregates (path, count, total seconds); empty untraced.
    paths: Vec<(String, u64, f64)>,
}

impl Cell {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn span_count(&self, path: &str) -> u64 {
        self.paths
            .iter()
            .find(|(p, _, _)| p == path)
            .map_or(0, |(_, c, _)| *c)
    }
}

/// One pass over every input.
pub struct Cycle {
    start: Instant,
    wall_s: f64,
    cells: Vec<Cell>,
    /// `run_fleet` call interval (grid only).
    fleet: Option<(Instant, Instant)>,
    aggregate: Option<(Instant, Instant)>,
    /// The checked output: FNV-1a of the aggregated grid CSV or of the
    /// summary rows, lines sorted so the order of the inputs drops out.
    digest: u64,
    degraded: u64,
}

impl Cycle {
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }
}

fn execute(spec: &RunSpec, traced: bool) -> (RunDigest, Cell) {
    let start = Instant::now();
    let prof = traced.then(|| Rc::new(RefCell::new(Profiler::new())));
    let obs = match &prof {
        Some(p) => Observer::disabled().with_profiler(p.clone()),
        None => Observer::disabled(),
    };
    let (outcome, obs) = spec.execute_observed(obs);
    let end = Instant::now();
    let events = obs.events_begun();
    drop(obs);
    let paths = prof
        .map(|p| {
            p.borrow()
                .spans()
                .iter()
                .map(|(path, s)| (path.clone(), s.count, s.total.as_secs_f64()))
                .collect()
        })
        .unwrap_or_default();
    let cell = Cell {
        key: spec.key.clone(),
        start,
        end,
        events,
        passes_all: outcome.scheduler_passes,
        backfilled: outcome.backfilled_starts,
        paths,
    };
    (RunDigest::from_outcome(&outcome), cell)
}

/// FNV-1a of `text` with its lines sorted.
fn sorted_digest(text: &str) -> u64 {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    fnv1a(lines.join("\n").as_bytes())
}

/// Every input executed in turn, outside any fleet.
pub fn run_direct(specs: &[RunSpec], traced: bool) -> Cycle {
    let start = Instant::now();
    let mut rows = String::new();
    let mut cells = Vec::new();
    for spec in specs {
        let (digest, cell) = execute(spec, traced);
        rows.push_str(&format!("{},{}\n", spec.key, digest.summary.csv_row()));
        cells.push(cell);
    }
    Cycle {
        start,
        wall_s: start.elapsed().as_secs_f64(),
        cells,
        fleet: None,
        aggregate: None,
        digest: sorted_digest(&rows),
        degraded: 0,
    }
}

fn run_cycle(workload: SimWorkload, specs: &[RunSpec], traced: bool) -> Cycle {
    if workload == SimWorkload::Overload {
        return run_direct(specs, traced);
    }
    let start = Instant::now();
    let cells = Arc::new(Mutex::new(Vec::new()));
    let exec: Exec = {
        let cells = cells.clone();
        Arc::new(move |spec: &RunSpec| {
            let (digest, cell) = execute(spec, traced);
            cells.lock().expect("cell list lock poisoned").push(cell);
            digest
        })
    };
    let cfg = FleetConfig {
        workers: 1,
        max_attempts: 1,
        heartbeat: None,
        ..FleetConfig::default()
    };
    let report = run_fleet(specs, &cfg, exec, None).expect("fleet configuration is valid");
    let fleet_end = Instant::now();
    let csv = aggregate_csv(specs, &report.records);
    let end = Instant::now();
    let degraded = report
        .records
        .iter()
        .filter(|r| !r.as_ref().is_some_and(|r| r.status.succeeded()))
        .count() as u64;
    let cells = std::mem::take(&mut *cells.lock().expect("cell list lock poisoned"));
    Cycle {
        start,
        wall_s: (end - start).as_secs_f64(),
        cells,
        fleet: Some((start, fleet_end)),
        aggregate: Some((fleet_end, end)),
        digest: sorted_digest(&csv),
        degraded,
    }
}

/// Each simulation at its best over the timed cycles: its fastest run,
/// plus the smallest time a cycle spent outside its simulations (fleet
/// dispatch, aggregation). Best-of keeps co-tenant slowdowns on a
/// shared machine out of the figures.
struct Best {
    cells: Vec<f64>,
    outside: f64,
}

impl Best {
    fn of(cycles: &[Cycle]) -> Best {
        let mut best: Vec<(&str, f64)> = Vec::new();
        for c in cycles {
            for cell in &c.cells {
                match best.iter_mut().find(|(k, _)| *k == cell.key) {
                    Some(b) => b.1 = b.1.min(cell.secs()),
                    None => best.push((&cell.key, cell.secs())),
                }
            }
        }
        let outside = cycles
            .iter()
            .map(|c| c.wall_s - c.cells.iter().map(Cell::secs).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        Best {
            cells: best.into_iter().map(|(_, s)| s).collect(),
            outside,
        }
    }

    fn wall(&self) -> f64 {
        self.cells.iter().sum::<f64>() + self.outside
    }
}

/// Build the inputs once: generate every month trace the run uses and
/// validate the grid. Returns the specs and the generation time.
fn set_up(workload: SimWorkload, seed: u64) -> (Vec<RunSpec>, f64) {
    let gen_start = Instant::now();
    let jobs: usize = (0..workload.traces())
        .map(|k| {
            WorkloadSpec::intrepid_month()
                .with_load_factor(workload.load_factor())
                .generate(workload.trace_seed(k))
                .len()
        })
        .sum();
    let generate_s = gen_start.elapsed().as_secs_f64();
    assert!(jobs > 0, "generated an empty month");
    let (specs, warnings) =
        validate_grid(workload.specs(seed)).expect("benchmark grid has unique keys");
    assert!(warnings.is_empty(), "benchmark grid has duplicate points");
    (specs, generate_s)
}

const CORE_SPANS: [&str; 6] = [
    "fair_start",
    "schedule_pass",
    "schedule_pass/window_search",
    "schedule_pass/backfill_pass",
    "schedule_pass/plan_build",
    "schedule_pass/score_sort",
];

/// Metric name of a core span path: `schedule_pass/window_search` →
/// `core.window_search`.
fn core_name(path: &str) -> String {
    format!("core.{}", path.rsplit('/').next().unwrap_or(path))
}

pub fn run(workload: SimWorkload, args: &Args, process_start: Instant) -> Outcome {
    // The first set-up counts from process start and makes the inputs;
    // the rest are spread over the run, between the timed cycles, so
    // `setup_s` samples the whole run rather than its first moments.
    let (specs, gen) = set_up(workload, args.seed);
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    let mut generates = vec![gen];
    let mut more_setups = |n: usize| {
        for _ in 0..n {
            let t0 = Instant::now();
            let (_, gen) = set_up(workload, args.seed);
            setups.push(t0.elapsed().as_secs_f64());
            generates.push(gen);
        }
    };

    let counted = run_cycle(workload, &specs, true);
    // Timed cycles until the next one would end past `--seconds` from
    // process start, at least [`MIN_TIMED_CYCLES`].
    let mut timed: Vec<Cycle> = Vec::new();
    loop {
        more_setups(SETUPS_PER_CYCLE);
        timed.push(run_cycle(workload, &specs, false));
        let next_end = process_start.elapsed().as_secs_f64() + timed[timed.len() - 1].wall_s;
        if timed.len() >= MIN_TIMED_CYCLES && next_end > args.seconds {
            break;
        }
    }

    let real_passes: u64 = counted
        .cells
        .iter()
        .map(|c| c.span_count("schedule_pass"))
        .sum();
    let untraced_wall = median(&timed.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let best = Best::of(&timed);

    // Correctness: every cycle reproduces the count cycle's output, and
    // that output matches the recorded digest.
    let cells_per_cycle = specs.len() as u64;
    let mut failed = counted.degraded + timed.iter().map(|c| c.degraded).sum::<u64>();
    let mut correct = failed == 0;
    for c in &timed {
        if c.digest != counted.digest {
            eprintln!(
                "digest mismatch: timed cycle {:016x} vs count cycle {:016x}",
                c.digest, counted.digest
            );
            failed += cells_per_cycle;
            correct = false;
        }
    }
    if counted.digest != workload.expected() {
        eprintln!(
            "digest mismatch: produced {:016x}, recorded {:016x}",
            counted.digest,
            workload.expected()
        );
        failed += cells_per_cycle;
        correct = false;
    }
    let attempted = cells_per_cycle * (1 + timed.len() as u64);

    let mut info = vec![
        ("digest".to_string(), format!("\"{:016x}\"", counted.digest)),
        ("cells_per_cycle".to_string(), cells_per_cycle.to_string()),
        (
            "trace_seeds".to_string(),
            format!(
                "{:?}",
                (0..workload.traces())
                    .map(|k| workload.trace_seed(k))
                    .collect::<Vec<_>>()
            ),
        ),
        (
            "first_input".to_string(),
            format!("\"{}\"", specs.first().map_or("", |s| s.key.as_str())),
        ),
        (
            "timed_cycle_walls_s".to_string(),
            format!("{:?}", timed.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
        ),
        ("real_passes".to_string(), real_passes.to_string()),
        (
            "untraced_cycle_wall_s".to_string(),
            untraced_wall.to_string(),
        ),
    ];

    let mut metrics = Metrics::default();
    let mut tables = Vec::new();
    let mut tracer = Tracer::new();
    if !args.trace {
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        metrics.put("throughput_per_s", real_passes as f64 / best.wall(), "1/s");
        metrics.put("request_p50_ms", median(&best.cells) * 1e3, "ms");
    } else {
        metrics.put("workload.generate_s", median(&generates), "s");
        let mut table = core_metrics(
            match workload {
                SimWorkload::Grid => "month_grid traced cycle",
                SimWorkload::Overload => "month_overload traced cycle",
            },
            &counted,
            untraced_wall,
            &mut metrics,
        );
        record_spans(&counted, &mut tracer);
        if workload == SimWorkload::Grid {
            let fleet = fleet_metrics(&counted, &mut table);
            info.push(("fleet".to_string(), fleet.to_json()));
        }
        tables.push(table);
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

/// Record the traced cycle's calls as spans: the cycle, the fleet call
/// and aggregation, one per simulation.
fn record_spans(counted: &Cycle, tracer: &mut Tracer) {
    let end = counted.start + Duration::from_secs_f64(counted.wall_s);
    let root = tracer.record("cycle", None, 0, counted.start, end);
    let parent = match counted.fleet {
        Some((s, e)) => Some(tracer.record("fleet.run_fleet", Some(root), 0, s, e)),
        None => Some(root),
    };
    if let Some((s, e)) = counted.aggregate {
        tracer.record("fleet.aggregate_csv", Some(root), 0, s, e);
    }
    for (i, c) in counted.cells.iter().enumerate() {
        tracer.record("core.execute", parent, i as u64 + 1, c.start, c.end);
    }
}

/// The fleet layer of a traced grid cycle: its rows go into `table`,
/// its figures into the returned set (reported with the run details;
/// only `month_grid` has a fleet).
fn fleet_metrics(counted: &Cycle, table: &mut LayerTable) -> Metrics {
    let mut m = Metrics::default();
    let (Some((fs, fe)), Some((as_, ae))) = (counted.fleet, counted.aggregate) else {
        return m;
    };
    let cell_busy: f64 = counted.cells.iter().map(Cell::secs).sum();
    let overhead = (fe - fs).as_secs_f64() - cell_busy;
    let aggregate = (ae - as_).as_secs_f64();
    table.push_interval("fleet.overhead", 0, overhead);
    table.push_interval("fleet.aggregate", 1, aggregate);
    m.put("fleet.cell_busy_s", cell_busy, "s");
    m.put(
        "fleet.cell_wall_max_s",
        counted.cells.iter().map(Cell::secs).fold(0.0, f64::max),
        "s",
    );
    m.put("fleet.overhead_s", overhead, "s");
    m.put("fleet.aggregate_s", aggregate, "s");
    m
}

/// Fill the `core.*` per-layer metrics from a traced cycle. Returns the
/// cycle's layer table: the profiler paths' self times plus
/// `core.unattributed` (time inside the simulations no top-level span
/// covers), against the traced wall.
pub fn core_metrics(
    title: &str,
    counted: &Cycle,
    untraced_wall: f64,
    m: &mut Metrics,
) -> LayerTable {
    // Profiler paths summed over cells.
    let mut paths: Vec<(String, u64, f64)> = Vec::new();
    for c in &counted.cells {
        for (p, n, t) in &c.paths {
            match paths.iter_mut().find(|(q, _, _)| q == p) {
                Some(e) => {
                    e.1 += n;
                    e.2 += t;
                }
                None => paths.push((p.clone(), *n, *t)),
            }
        }
    }
    paths.sort_by(|a, b| a.0.cmp(&b.0));
    let rows = path_rows(&paths);
    let cell_busy: f64 = counted.cells.iter().map(Cell::secs).sum();
    let top_level: f64 = paths
        .iter()
        .filter(|(p, _, _)| !p.contains('/'))
        .map(|(_, _, t)| t)
        .sum();

    let mut table = LayerTable::new(title, counted.wall_s);
    for r in rows.iter().filter(|r| r.total_s > 0.0) {
        let mut r = r.clone();
        r.name = core_name(&r.name);
        table.push(r);
    }
    table.push_interval("core.unattributed", 0, cell_busy - top_level);

    let count = |path: &str| -> u64 { counted.cells.iter().map(|c| c.span_count(path)).sum() };
    let self_of = |path: &str| -> f64 {
        rows.iter()
            .find(|r| r.name == path)
            .map_or(0.0, |r| r.self_s)
    };
    for path in CORE_SPANS {
        m.put(&format!("{}.self_s", core_name(path)), self_of(path), "s");
    }
    m.put("core.fair_start.count", count("fair_start") as f64, "count");
    m.put(
        "core.window_search.count",
        count("schedule_pass/window_search") as f64,
        "count",
    );
    let passes = count("schedule_pass");
    let passes_all: u64 = counted.cells.iter().map(|c| c.passes_all).sum();
    m.put("core.passes", passes as f64, "count");
    m.put("core.passes_empty", (passes_all - passes) as f64, "count");
    m.put(
        "core.backfilled_starts",
        counted.cells.iter().map(|c| c.backfilled).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "core.events",
        counted.cells.iter().map(|c| c.events).sum::<u64>() as f64,
        "count",
    );
    let hit = count("schedule_pass/score_cache_hit");
    let repair = count("schedule_pass/score_cache_repair");
    let miss = count("schedule_pass/score_cache_miss");
    m.put("core.score_cache.hit", hit as f64, "count");
    m.put("core.score_cache.repair", repair as f64, "count");
    m.put("core.score_cache.miss", miss as f64, "count");
    let lookups = hit + repair + miss;
    m.put(
        "core.score_cache.useful_ratio",
        if lookups == 0 {
            0.0
        } else {
            (hit + repair) as f64 / lookups as f64
        },
        "ratio",
    );
    m.put("core.unattributed_s", cell_busy - top_level, "s");
    m.put("core.traced_wall_s", counted.wall_s, "s");
    m.put("core.trace_overhead_s", counted.wall_s - untraced_wall, "s");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_fixed_set_in_seeded_order() {
        for workload in [SimWorkload::Grid, SimWorkload::Overload] {
            let keys = |seed| {
                let mut k: Vec<String> = workload.specs(seed).into_iter().map(|s| s.key).collect();
                let first = k[0].clone();
                k.sort();
                (first, k)
            };
            let (first7, set7) = keys(7);
            let (first8, set8) = keys(8);
            assert_eq!(set7, set8);
            assert_ne!(first7, first8);
            assert_eq!(workload.specs(7), workload.specs(7));
            assert!(validate_grid(workload.specs(7)).unwrap().1.is_empty());
        }
        assert_eq!(SimWorkload::Grid.specs(0).len(), 15);
        assert_eq!(
            SimWorkload::Overload.specs(0).len(),
            OVERLOAD_TRACES as usize
        );
        assert!(SimWorkload::Overload
            .specs(7)
            .iter()
            .all(|s| s.policy == PolicyParams::new(0.5, 2)));
    }

    #[test]
    fn best_takes_each_simulation_at_its_fastest() {
        let t0 = Instant::now();
        let cell = |key: &str, secs: f64| Cell {
            key: key.to_string(),
            start: t0,
            end: t0 + Duration::from_secs_f64(secs),
            events: 0,
            passes_all: 0,
            backfilled: 0,
            paths: Vec::new(),
        };
        let cycle = |wall_s: f64, cells: Vec<Cell>| Cycle {
            start: t0,
            wall_s,
            cells,
            fleet: None,
            aggregate: None,
            digest: 0,
            degraded: 0,
        };
        let cycles = [
            cycle(3.5, vec![cell("a", 1.0), cell("b", 2.0)]),
            cycle(3.25, vec![cell("b", 1.5), cell("a", 1.25)]),
        ];
        let best = Best::of(&cycles);
        assert_eq!(best.cells, vec![1.0, 1.5]);
        // Outside the simulations: 0.5 s, then 0.5 s.
        assert!((best.outside - 0.5).abs() < 1e-9);
        assert!((best.wall() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn digests_ignore_line_order() {
        assert_eq!(sorted_digest("b\na\n"), sorted_digest("a\nb"));
        assert_ne!(sorted_digest("a\nb"), sorted_digest("a\nc"));
    }

    /// Prints the digests of `src/expected.rs`, and checks that the
    /// seed's rotation leaves them unchanged:
    /// `cargo test --release --offline --manifest-path perfbench/Cargo.toml
    /// -- --ignored --nocapture record_digests`.
    #[test]
    #[ignore = "slow: four passes over the inputs"]
    fn record_digests() {
        for (workload, name) in [
            (SimWorkload::Grid, "MONTH_GRID"),
            (SimWorkload::Overload, "MONTH_OVERLOAD"),
        ] {
            let digest = |seed| {
                let c = run_cycle(workload, &workload.specs(seed), false);
                assert_eq!(c.degraded, 0);
                c.digest
            };
            let d = digest(0);
            assert_eq!(d, digest(1), "the seed changed the {name} output");
            println!("pub const {name}: u64 = 0x{d:016x};");
        }
    }
}
