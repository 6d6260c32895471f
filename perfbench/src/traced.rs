//! The traced run: each op is replayed layer by layer from the benchmark's
//! own code, one span per public call, next to the `core` entry call on the
//! same input. Layers a workload's op does not call are timed once by the
//! probe ladder on the workload's mesh, so every per-layer metric exists on
//! every workload.

use crate::check;
use crate::ops::{flusim_fingerprint, portfolio_fingerprint};
use crate::report::{host_line, median, Metric};
use crate::spec::{self, Inputs, Scale, Workload, PAYLOAD_BYTES, SFC, WORKERS};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tempart_core::{
    repartition_sequence_traced, run_flusim_workers_traced, run_portfolio_network_traced,
    FlusimOutcome, PartitionStrategy, PortfolioOutcome, RepartMode, RepartSequenceConfig,
    WorkspacePool,
};
use tempart_flusim::{race_network_traced, simulate_traced, DynamicListStrategy, Strategy};
use tempart_graph::{MigrationStats, PartId, PartitionQuality};
use tempart_mesh::{DriftConfig, Mesh};
use tempart_obs::json::{self, Value};
use tempart_obs::Recorder;
use tempart_partition::{
    partition_graph_par_traced, repartition_par, sfc_partition_with, Curve, RepartStats,
    SfcWorkspace,
};
use tempart_taskgraph::{
    generate_taskgraph_traced, stats::block_process_map, DomainDecomposition, TaskGraph,
    TaskGraphConfig,
};
use tempart_testkit::alloc::count_allocations;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`partition.multilevel`) or grouping (`op.replica`).
    pub name: &'static str,
    /// Op the span belongs to; `None` for set-up and probe spans.
    pub op: Option<u64>,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span log, written out once the run ends.
pub struct SpanLog {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<Option<u64>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(None),
        }
    }
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, tagged with the current op.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op: self.op.get(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now();
        let r = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        r
    }

    /// Runs `f` with every span it opens tagged as op `op`.
    pub fn in_op<R>(&self, op: usize, f: impl FnOnce() -> R) -> R {
        let outer = self.op.replace(Some(op as u64));
        let r = f();
        self.op.set(outer);
        r
    }

    fn last(&self, name: &str) -> usize {
        let spans = self.spans.borrow();
        spans
            .iter()
            .rposition(|s| s.name == name)
            .expect("span was recorded")
    }

    /// Duration of the most recent span named `name`.
    pub fn last_ms(&self, name: &str) -> f64 {
        let s = &self.spans.borrow()[self.last(name)];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Summed duration of the leaf spans under the most recent span named
    /// `name`: the time its layer calls account for.
    pub fn last_layers_ms(&self, name: &str) -> f64 {
        let root = self.last(name);
        let spans = self.spans.borrow();
        let under = |mut i: usize| loop {
            match spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let is_parent: Vec<bool> = {
            let mut v = vec![false; spans.len()];
            for s in spans.iter() {
                if let Some(p) = s.parent {
                    v[p] = true;
                }
            }
            v
        };
        (root + 1..spans.len())
            .filter(|&i| !is_parent[i] && under(i))
            .map(|i| (spans[i].end_ns - spans[i].start_ns) as f64 / 1e6)
            .sum()
    }

    /// Time per op in spans named `name`: the median over ops of each op's
    /// summed spans, or, for a layer no op calls, the median over its set-up
    /// and probe spans. Also returns the sample count.
    pub fn layer_ms(&self, name: &str) -> (f64, usize) {
        let spans = self.spans.borrow();
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        let mut loose = Vec::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
            match s.op {
                Some(op) => *per_op.entry(op).or_default() += ms,
                None => loose.push(ms),
            }
        }
        if per_op.is_empty() {
            (median(&loose), loose.len())
        } else {
            let v: Vec<f64> = per_op.into_values().collect();
            (median(&v), v.len())
        }
    }

    /// The spans as a JSON array of `{name, op, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let num = |x: Option<u64>| x.map_or(Value::Null, |v| Value::Num(v as f64));
        let items = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                Value::Obj(BTreeMap::from([
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("op".to_string(), num(s.op)),
                    ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
                    ("parent".to_string(), num(s.parent.map(|p| p as u64))),
                ]))
            })
            .collect();
        json::write(&Value::Arr(items))
    }
}

/// Tally of the traced run's fidelity checks.
#[derive(Default)]
pub struct Fidelity {
    /// Checks made.
    pub attempted: usize,
    /// Checks failed.
    pub failed: usize,
    /// One line per failed check.
    pub lines: Vec<String>,
}

impl Fidelity {
    fn expect(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines
                .push(format!("fidelity check failed: {}", what()));
        }
    }
}

/// What one traced run measured besides its spans.
#[derive(Default)]
struct Traced {
    /// `core` entry time minus the replica's layer calls, per op.
    overhead_ms: Vec<f64>,
    /// Diffusion stats of the ops (empty when the op does not repartition).
    repart: Vec<RepartStats>,
    /// Task count per op (empty when the op generates no task graph).
    tasks: Vec<f64>,
}

/// Layer replica of `core::run_flusim_workers_traced` (MC_TL pipeline).
fn mctl_replica(
    log: &SpanLog,
    mesh: &Mesh,
    k: usize,
    seed: u64,
    pool: &WorkspacePool,
) -> FlusimOutcome {
    let (topology, g) = log.span("graph.build", || {
        let topology = mesh.to_graph();
        let g = spec::weighted_graph(mesh, &topology, PartitionStrategy::McTl);
        (topology, g)
    });
    let cfg = spec::multilevel_config(k, g.ncon(), seed);
    let part = log.span("partition.multilevel", || {
        partition_graph_par_traced(&g, &cfg, WORKERS, pool, Recorder::off())
    });
    let quality = log.span("graph.quality", || {
        PartitionQuality::measure(&topology, &part, k)
    });
    let (_, graph, process_of) = tail_layers(log, mesh, &part, k);
    let sim = log.span("flusim.simulate", || {
        simulate_traced(
            &graph,
            &spec::cluster(),
            &process_of,
            Strategy::EagerFifo,
            Recorder::off(),
        )
    });
    FlusimOutcome {
        part,
        quality,
        graph,
        process_of,
        sim,
        interprocess_cut: 0,
    }
}

/// Domain decomposition and task-graph generation, as `core` runs them.
fn tail_layers(
    log: &SpanLog,
    mesh: &Mesh,
    part: &[PartId],
    k: usize,
) -> (DomainDecomposition, TaskGraph, Vec<usize>) {
    let dd = log.span("taskgraph.domains", || {
        DomainDecomposition::new_sharded(mesh, part, k, WORKERS)
    });
    let graph = log.span("taskgraph.generate", || {
        generate_taskgraph_traced(mesh, &dd, &TaskGraphConfig::default(), Recorder::off())
    });
    (dd, graph, block_process_map(k, spec::PROCESSES))
}

/// Centroids and SC_OC weights, the inputs of the SFC partitioner.
fn sfc_inputs(mesh: &Mesh) -> (Vec<[f64; 3]>, Vec<u64>) {
    let centroids = mesh.cells().iter().map(|c| c.centroid).collect();
    let (w, _) = tempart_core::strategy_weights(mesh, SFC);
    (centroids, w.into_iter().map(u64::from).collect())
}

/// Layer replica of `core::run_portfolio_network_traced` (SFC race).
fn sfc_replica(log: &SpanLog, mesh: &Mesh, k: usize) -> PortfolioOutcome {
    let (centroids, weights) = log.span("graph.build", || sfc_inputs(mesh));
    let part = log.span("partition.sfc", || {
        let mut ws = SfcWorkspace::new();
        sfc_partition_with(&centroids, &weights, k, Curve::Hilbert, WORKERS, &mut ws)
    });
    let topology = log.span("graph.build", || mesh.to_graph());
    let quality = log.span("graph.quality", || {
        PartitionQuality::measure(&topology, &part, k)
    });
    let (dd, graph, process_of) = tail_layers(log, mesh, &part, k);
    let leaderboard = log.span("flusim.race", || {
        let net = spec::network().with_halo(&dd, TaskGraphConfig::default().face_payload_bytes);
        race_network_traced(
            &graph,
            &spec::cluster(),
            &process_of,
            &net,
            WORKERS,
            Recorder::off(),
        )
    });
    PortfolioOutcome {
        part,
        quality,
        graph,
        process_of,
        leaderboard,
    }
}

/// Layer replica of one step of the `core::repartition_sequence` loop.
#[allow(clippy::too_many_arguments)]
fn step_replica(
    log: &SpanLog,
    mesh: &mut Mesh,
    topology: &tempart_graph::CsrGraph,
    drift: &DriftConfig,
    step: u32,
    part: &mut [PartId],
    k: usize,
    pool: &WorkspacePool,
) -> (RepartStats, MigrationStats) {
    log.span("mesh.drift", || drift.apply(mesh, step));
    let g = log.span("graph.build", || {
        spec::weighted_graph(mesh, topology, PartitionStrategy::McTl)
    });
    let old = part.to_vec();
    let stats = log.span("partition.repart", || {
        let cfg = spec::repart_config(k, g.ncon());
        repartition_par(&g, part, &cfg, WORKERS, pool, Recorder::off())
    });
    let (migration, _) = log.span("graph.quality", || {
        let m = MigrationStats::measure(&g, &old, part, k, PAYLOAD_BYTES);
        let q = PartitionQuality::measure(&g, part, k);
        (m, q)
    });
    (stats, migration)
}

/// Runs `a` and `b`, `b` first on odd `i`, so neither side of a
/// replica-versus-`core` comparison always runs on the state the other left.
fn alternate<A, B>(i: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if i.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// Runs `f(i)` for ops `0, 1, ...` until `seconds` have passed and at
/// least `min_ops` ran.
fn op_loop(seconds: f64, min_ops: usize, mut f: impl FnMut(usize)) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed() < budget {
        f(i);
        i += 1;
    }
}

fn trace_mctl(
    log: &SpanLog,
    fid: &mut Fidelity,
    scale: &Scale,
    inputs: &Inputs,
    seconds: f64,
) -> (Traced, Mesh, Probe) {
    let mesh = log.span("mesh.generate", || scale.mesh());
    let pool = spec::pool();
    let k = scale.domains;
    let seeds = &inputs.part_seeds;
    let core = |seed| {
        let cfg = spec::pipeline_config(PartitionStrategy::McTl, k, seed);
        run_flusim_workers_traced(&mesh, &cfg, WORKERS, &pool, Recorder::off())
    };
    core(seeds[seeds.len() - 1]);
    let mut t = Traced::default();
    op_loop(seconds, scale.traced_ops, |i| {
        let seed = seeds[i % seeds.len()];
        let (replica, out) = log.in_op(i, || {
            alternate(
                i,
                || log.span("op.replica", || mctl_replica(log, &mesh, k, seed, &pool)),
                || log.span("op.core", || core(seed)),
            )
        });
        t.overhead_ms
            .push(log.last_ms("op.core") - log.last_layers_ms("op.replica"));
        t.tasks.push(replica.graph.len() as f64);
        fid.expect(
            || format!("op {i}: layer replica differs from core::run_flusim_workers_traced"),
            flusim_fingerprint(&replica) == flusim_fingerprint(&out),
        );
    });
    let probe = Probe {
        k_multilevel: k,
        seed: seeds[0],
        k_sfc: k,
        tail_sfc: false,
    };
    (t, mesh, probe)
}

fn trace_sfc(
    log: &SpanLog,
    fid: &mut Fidelity,
    scale: &Scale,
    inputs: &Inputs,
    seconds: f64,
) -> (Traced, Mesh, Probe) {
    let mesh = log.span("mesh.generate", || scale.mesh());
    let pool = spec::pool();
    let net = spec::network();
    let ks = &inputs.domain_counts;
    let core = |k| {
        let cfg = spec::pipeline_config(SFC, k, 0);
        run_portfolio_network_traced(&mesh, &cfg, &net, WORKERS, &pool, Recorder::off())
    };
    core(ks[ks.len() - 1]);
    let mut t = Traced::default();
    op_loop(seconds, scale.traced_ops, |i| {
        let k = ks[i % ks.len()];
        let (replica, out) = log.in_op(i, || {
            alternate(
                i,
                || log.span("op.replica", || sfc_replica(log, &mesh, k)),
                || log.span("op.core", || core(k)),
            )
        });
        t.overhead_ms
            .push(log.last_ms("op.core") - log.last_layers_ms("op.replica"));
        t.tasks.push(replica.graph.len() as f64);
        fid.expect(
            || format!("op {i}: layer replica differs from core::run_portfolio_network_traced"),
            portfolio_fingerprint(&replica) == portfolio_fingerprint(&out),
        );
    });
    let probe = Probe {
        k_multilevel: scale.domains,
        seed: 0,
        k_sfc: ks[0],
        tail_sfc: true,
    };
    (t, mesh, probe)
}

fn trace_repart(
    log: &SpanLog,
    fid: &mut Fidelity,
    scale: &Scale,
    inputs: &Inputs,
    seconds: f64,
) -> (Traced, Mesh, Probe) {
    let base = log.span("mesh.generate", || scale.mesh());
    let pool = spec::pool();
    let k = scale.domains;
    let steps = scale.steps;
    let seed = inputs.part_seeds[0];
    let cfg = |drift: &DriftConfig| RepartSequenceConfig {
        drift: drift.clone(),
        ..RepartSequenceConfig::graded_cylinder(
            k,
            seed,
            steps as u32,
            RepartMode::Diffusion { budget: None },
        )
    };
    repartition_sequence_traced(
        &base,
        &cfg(&inputs.drifts[0]),
        WORKERS,
        &pool,
        Recorder::off(),
    );
    let mut t = Traced::default();
    let mut op = 0;
    op_loop(seconds, inputs.drifts.len(), |seq| {
        let drift = &inputs.drifts[seq % inputs.drifts.len()];
        let replica = || {
            log.span("sequence.replica", || {
                let mut mesh = base.clone();
                log.span("mesh.drift", || drift.apply(&mut mesh, 0));
                let (topology, g) = log.span("graph.build", || {
                    let topology = mesh.to_graph();
                    let g = spec::weighted_graph(&mesh, &topology, PartitionStrategy::McTl);
                    (topology, g)
                });
                let mut part = log.span("partition.multilevel", || {
                    let cfg = spec::multilevel_config(k, g.ncon(), seed);
                    partition_graph_par_traced(&g, &cfg, WORKERS, &pool, Recorder::off())
                });
                log.span("graph.quality", || PartitionQuality::measure(&g, &part, k));
                let mut volume = 0;
                for step in 1..=steps as u32 {
                    let (stats, migration) = log.in_op(op, || {
                        log.span("op.replica", || {
                            step_replica(
                                log, &mut mesh, &topology, drift, step, &mut part, k, &pool,
                            )
                        })
                    });
                    volume += migration.volume;
                    t.repart.push(stats);
                    op += 1;
                }
                (part, volume)
            })
        };
        let core = || {
            log.span("sequence.core", || {
                repartition_sequence_traced(&base, &cfg(drift), WORKERS, &pool, Recorder::off())
            })
        };
        let ((part, volume), out) = alternate(seq, replica, core);
        t.overhead_ms.push(
            (log.last_ms("sequence.core") - log.last_layers_ms("sequence.replica")) / steps as f64,
        );
        fid.expect(
            || format!("sequence {seq}: driven loop ends on another partition than core::repartition_sequence"),
            part == out.part && volume == out.total_migration_volume(),
        );
    });
    let mut mesh = base;
    inputs.drifts[0].apply(&mut mesh, 0);
    let probe = Probe {
        k_multilevel: k,
        seed,
        k_sfc: k,
        tail_sfc: false,
    };
    (t, mesh, probe)
}

/// Inputs of the probe ladder: the partitioner calls are made with the
/// first op's domain count and seed, so a layer the op does call is probed
/// on the op's own input.
struct Probe {
    k_multilevel: usize,
    seed: u64,
    k_sfc: usize,
    /// Feed the task-graph and FLUSIM probes the SFC partition (else MC_TL).
    tail_sfc: bool,
}

/// What the probe ladder measured beyond its spans.
struct Ladder {
    multilevel_speedup: f64,
    multilevel_allocs: f64,
    sfc_speedup: f64,
    repart: RepartStats,
    tasks: usize,
    race_speedup: f64,
    race_tasks_per_s: f64,
    net_bytes: u64,
}

/// 1-worker / 2-worker pairs each fan-out call is timed in.
const PAIRS: usize = 3;

/// Runs `call(WORKERS)` in a span named `names[0]` (warming the scratch
/// state), then [`PAIRS`] pairs of `call(1)` and `call(WORKERS)` in spans
/// named `names[1]` and `names[2]`. Returns the first result, the median
/// 1-worker / 2-worker time ratio and the median allocation count of the
/// 1-worker call, and checks that every call gave the same output.
fn widths<R: PartialEq>(
    log: &SpanLog,
    fid: &mut Fidelity,
    names: [&'static str; 3],
    mut call: impl FnMut(usize) -> R,
) -> (R, f64, f64) {
    let first = log.span(names[0], || call(WORKERS));
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut allocs = Vec::with_capacity(PAIRS);
    let mut same = true;
    for _ in 0..PAIRS {
        let (one, n) = log.span(names[1], || count_allocations(|| call(1)));
        let two = log.span(names[2], || call(WORKERS));
        ratios.push(log.last_ms(names[1]) / log.last_ms(names[2]));
        allocs.push(n as f64);
        same &= one == first && two == first;
    }
    fid.expect(
        || {
            format!(
                "{} output differs between 1 and {WORKERS} workers",
                names[0]
            )
        },
        same,
    );
    (first, median(&ratios), median(&allocs))
}

/// Times each layer on `mesh` (op-less spans), each fan-out call also at one
/// and at two workers on the same input (see [`widths`]).
fn ladder(log: &SpanLog, fid: &mut Fidelity, mesh: &Mesh, p: &Probe) -> Ladder {
    let pool = spec::pool();
    let mut drifted = mesh.clone();
    let drift = DriftConfig::graded_cylinder();
    log.span("mesh.drift", || drift.apply(&mut drifted, 1));

    let topology = mesh.to_graph();
    let g = spec::weighted_graph(mesh, &topology, PartitionStrategy::McTl);
    let cfg = spec::multilevel_config(p.k_multilevel, g.ncon(), p.seed);
    let (ml, multilevel_speedup, multilevel_allocs) = widths(
        log,
        fid,
        [
            "partition.multilevel",
            "partition.multilevel.w1",
            "partition.multilevel.w2",
        ],
        |w| partition_graph_par_traced(&g, &cfg, w, &pool, Recorder::off()),
    );

    let (centroids, weights) = sfc_inputs(mesh);
    let mut ws = SfcWorkspace::new();
    let (sfc, sfc_speedup, _) = widths(
        log,
        fid,
        ["partition.sfc", "partition.sfc.w1", "partition.sfc.w2"],
        |w| sfc_partition_with(&centroids, &weights, p.k_sfc, Curve::Hilbert, w, &mut ws),
    );

    let g1 = spec::weighted_graph(&drifted, &topology, PartitionStrategy::McTl);
    let mut part = ml.clone();
    let repart = log.span("partition.repart", || {
        let cfg = spec::repart_config(p.k_multilevel, g1.ncon());
        repartition_par(&g1, &mut part, &cfg, WORKERS, &pool, Recorder::off())
    });

    let (part, k) = if p.tail_sfc {
        (&sfc, p.k_sfc)
    } else {
        (&ml, p.k_multilevel)
    };
    let (dd, graph, process_of) = tail_layers(log, mesh, part, k);
    let cluster = spec::cluster();
    let sim = log.span("flusim.simulate", || {
        simulate_traced(
            &graph,
            &cluster,
            &process_of,
            Strategy::EagerFifo,
            Recorder::off(),
        )
    });
    fid.expect(
        || "probe schedule: a task did not run exactly once".into(),
        check::schedule(&graph, &sim).is_ok(),
    );

    let net = spec::network().with_halo(&dd, TaskGraphConfig::default().face_payload_bytes);
    let (board, race_speedup, _) = widths(
        log,
        fid,
        ["flusim.race", "flusim.race.w1", "flusim.race.w2"],
        |w| race_network_traced(&graph, &cluster, &process_of, &net, w, Recorder::off()),
    );
    let combos = DynamicListStrategy::lattice().len();
    let race_tasks_per_s = (graph.len() * combos) as f64 / (log.layer_ms("flusim.race.w2").0 / 1e3);
    let resim = check::race(&graph, &board, &cluster, &process_of, &net);
    let net_bytes = resim
        .as_ref()
        .ok()
        .and_then(|s| s.net.as_ref())
        .map_or(0, |n| n.bytes_in.iter().sum());
    fid.expect(
        || format!("probe race check: {:?}", resim.as_ref().err()),
        resim.is_ok(),
    );
    Ladder {
        multilevel_speedup,
        multilevel_allocs,
        sfc_speedup,
        repart,
        tasks: graph.len(),
        race_speedup,
        race_tasks_per_s,
        net_bytes,
    }
}

/// The traced run of `workload`: per-layer metrics plus the fidelity tally.
pub fn run(
    workload: Workload,
    scale: &Scale,
    inputs: &Inputs,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Vec<Metric>, Fidelity, SpanLog) {
    let log = SpanLog::default();
    let mut fid = Fidelity::default();
    let (t, mesh, probe) = match workload {
        Workload::MctlPipeline => trace_mctl(&log, &mut fid, scale, inputs, seconds),
        Workload::SfcRace => trace_sfc(&log, &mut fid, scale, inputs, seconds),
        Workload::ReparDrift => trace_repart(&log, &mut fid, scale, inputs, seconds),
    };
    let l = ladder(&log, &mut fid, &mesh, &probe);
    lines.append(&mut fid.lines);
    lines.push(host_line(workload, mesh.n_cells(), scale));

    let ms = |name: &'static str, span: &str| {
        let (v, n) = log.layer_ms(span);
        Metric::new(name, "ms", v, n)
    };
    let repart = if t.repart.is_empty() {
        vec![l.repart]
    } else {
        t.repart.clone()
    };
    let stat = |f: fn(&RepartStats) -> Option<f64>| {
        let v: Vec<f64> = repart.iter().filter_map(f).collect();
        (median(&v), v.len())
    };
    let (rounds, n_rounds) = stat(|s| Some(f64::from(s.rounds)));
    let (realized, n_realized) =
        stat(|s| (s.planned_flow > 0).then(|| s.volume_moved as f64 / s.planned_flow as f64));
    let (volume, n_volume) = stat(|s| Some(s.volume_moved as f64));
    let (tasks, n_tasks) = if t.tasks.is_empty() {
        (l.tasks as f64, 1)
    } else {
        (median(&t.tasks), t.tasks.len())
    };
    let metrics = vec![
        ms("mesh.generate_ms", "mesh.generate"),
        ms("mesh.drift_ms", "mesh.drift"),
        ms("graph.build_ms", "graph.build"),
        ms("graph.quality_ms", "graph.quality"),
        ms("partition.multilevel_ms", "partition.multilevel"),
        Metric::new(
            "partition.multilevel_speedup_w2",
            "x",
            l.multilevel_speedup,
            PAIRS,
        ),
        Metric::new(
            "partition.multilevel_allocs_w1",
            "count",
            l.multilevel_allocs,
            PAIRS,
        ),
        ms("partition.sfc_ms", "partition.sfc"),
        Metric::new("partition.sfc_speedup_w2", "x", l.sfc_speedup, PAIRS),
        ms("partition.repart_ms", "partition.repart"),
        Metric::new("partition.repart_rounds", "count", rounds, n_rounds),
        Metric::new(
            "partition.repart_flow_realized",
            "ratio",
            realized,
            n_realized,
        ),
        Metric::new("partition.repart_volume", "count", volume, n_volume),
        ms("taskgraph.domains_ms", "taskgraph.domains"),
        ms("taskgraph.generate_ms", "taskgraph.generate"),
        Metric::new("taskgraph.tasks", "count", tasks, n_tasks),
        ms("flusim.simulate_ms", "flusim.simulate"),
        ms("flusim.race_ms", "flusim.race"),
        Metric::new("flusim.race_speedup_w2", "x", l.race_speedup, PAIRS),
        Metric::new("flusim.race_tasks_per_s", "1/s", l.race_tasks_per_s, PAIRS),
        Metric::new("flusim.net_bytes", "bytes", l.net_bytes as f64, 1),
        Metric::new(
            "core.overhead_ms",
            "ms",
            median(&t.overhead_ms),
            t.overhead_ms.len(),
        ),
    ];
    lines.push(coverage(&log, &metrics, workload));
    (metrics, fid, log)
}

/// How much of the op's wall time the named layers plus `core.overhead_ms`
/// account for.
fn coverage(log: &SpanLog, metrics: &[Metric], workload: Workload) -> String {
    // Repartitioning ops have no `core` entry call of their own.
    let (op_span, overhead) = match workload {
        Workload::ReparDrift => ("op.replica", false),
        _ => ("op.core", true),
    };
    let in_op = |span: &str| {
        let spans = log.spans.borrow();
        spans.iter().any(|s| s.name == span && s.op.is_some())
    };
    // Each `<layer>_ms` metric times the spans named `<layer>`.
    let covered: f64 = metrics
        .iter()
        .filter(|m| m.unit == "ms")
        .filter(|m| match m.name {
            "core.overhead_ms" => overhead,
            name => in_op(name.trim_end_matches("_ms")),
        })
        .map(|m| m.value)
        .sum();
    let (op_ms, _) = log.layer_ms(op_span);
    format!(
        "coverage: named layer spans{} = {:.1}% of the op's {op_ms:.3} ms median",
        if overhead { " + core.overhead_ms" } else { "" },
        100.0 * covered / op_ms,
    )
}
