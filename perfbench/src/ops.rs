//! The untraced run: set-up, the closed op loop (one client) and the
//! end-to-end metrics.

use crate::calib::{Calibration, NOMINAL_MS};
use crate::check;
use crate::report::{host_line, median, Metric};
use crate::spec::{self, Inputs, Scale, Workload, PAYLOAD_BYTES, SFC, WORKERS};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tempart_core::{
    decompose_par_traced, run_flusim_workers_traced, run_portfolio_network_traced, FlusimOutcome,
    PartitionStrategy, PortfolioOutcome, WorkspacePool,
};
use tempart_flusim::{simulate_traced, NetworkModel, Strategy};
use tempart_graph::{migration_volume, CsrGraph, MigrationStats, PartId, PartitionQuality};
use tempart_mesh::{DriftConfig, Mesh};
use tempart_obs::Recorder;
use tempart_partition::{repartition_par, RepartStats};
use tempart_taskgraph::{
    generate_taskgraph_traced, stats::block_process_map, DomainDecomposition, TaskGraphConfig,
};

/// What the check of one op found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Digest of the op's output; a repeated input must reproduce it.
    pub fingerprint: u64,
    /// FLUSIM makespan bought by the op's partition.
    pub makespan: u64,
    /// Edge cut of the op's partition.
    pub edge_cut: i64,
    /// Worst per-constraint imbalance under the strategy's own weights.
    pub imbalance: f64,
    /// Cell-weight units whose part changed since the previous op.
    pub migration: i64,
}

/// One workload: a measured call and its untimed output check.
pub trait Bench {
    /// Output of the measured call.
    type Out;
    /// Mesh cells one op processes.
    fn cells(&self) -> usize;
    /// The measured call of op `i`.
    fn call(&mut self, i: usize) -> Self::Out;
    /// Checks op `i`'s output and measures its quality.
    fn check(&mut self, i: usize, out: Self::Out) -> Result<Outcome, String>;
}

/// `mctl-pipeline-d5`: one warm-pool `core` pipeline call per op.
pub struct Mctl {
    mesh: Mesh,
    seeds: Vec<u64>,
    k: usize,
    pool: WorkspacePool,
    weighted: Option<CsrGraph>,
    prev: Vec<PartId>,
}

impl Mctl {
    /// Generates the mesh and runs one warm-up op on the last input.
    pub fn setup(scale: &Scale, inputs: &Inputs) -> Self {
        let mut b = Self {
            mesh: scale.mesh(),
            seeds: inputs.part_seeds.clone(),
            k: scale.domains,
            pool: spec::pool(),
            weighted: None,
            prev: Vec::new(),
        };
        b.prev = b.call(b.seeds.len() - 1).part;
        b
    }
}

impl Bench for Mctl {
    type Out = FlusimOutcome;

    fn cells(&self) -> usize {
        self.mesh.n_cells()
    }

    fn call(&mut self, i: usize) -> FlusimOutcome {
        let seed = self.seeds[i % self.seeds.len()];
        let cfg = spec::pipeline_config(PartitionStrategy::McTl, self.k, seed);
        run_flusim_workers_traced(&self.mesh, &cfg, WORKERS, &self.pool, Recorder::off())
    }

    fn check(&mut self, _: usize, out: FlusimOutcome) -> Result<Outcome, String> {
        let mesh = &self.mesh;
        let g = self.weighted.get_or_insert_with(|| {
            spec::weighted_graph(mesh, &mesh.to_graph(), PartitionStrategy::McTl)
        });
        let imbalance = check::partition(g, &out.part, self.k)?;
        check::schedule(&out.graph, &out.sim)?;
        let migration = migration_volume(g, &self.prev, &out.part);
        let outcome = Outcome {
            fingerprint: flusim_fingerprint(&out),
            makespan: out.sim.makespan,
            edge_cut: out.quality.edge_cut,
            imbalance,
            migration,
        };
        self.prev = out.part;
        Ok(outcome)
    }
}

/// Digest of a pipeline result: partition, quality, task graph, schedule.
pub fn flusim_fingerprint(out: &FlusimOutcome) -> u64 {
    check::fingerprint(
        [
            check::part_fingerprint(&out.part),
            quality_fingerprint(&out.quality),
            out.graph.len() as u64,
            out.graph.total_cost(),
            out.sim.makespan,
        ]
        .into_iter()
        .chain(out.sim.segments.iter().map(|s| s.start)),
    )
}

/// Digest of a portfolio result: partition, quality, task graph, ranking.
pub fn portfolio_fingerprint(out: &PortfolioOutcome) -> u64 {
    check::fingerprint([
        check::part_fingerprint(&out.part),
        quality_fingerprint(&out.quality),
        out.graph.len() as u64,
        out.graph.total_cost(),
        out.leaderboard.fingerprint(),
    ])
}

/// Digest of every field of a quality report.
pub fn quality_fingerprint(q: &PartitionQuality) -> u64 {
    check::fingerprint(
        [
            q.nparts as u64,
            q.edge_cut as u64,
            q.comm_volume as u64,
            q.part_components as u64,
        ]
        .into_iter()
        .chain(q.imbalances.iter().map(|x| x.to_bits())),
    )
}

/// `sfc-race-d6`: one `core` SFC + network portfolio race per op.
pub struct Sfc {
    mesh: Mesh,
    ks: Vec<usize>,
    pool: WorkspacePool,
    net: NetworkModel,
    weighted: Option<CsrGraph>,
    prev: Vec<PartId>,
}

impl Sfc {
    /// Generates the mesh and runs one warm-up op on the last input.
    pub fn setup(scale: &Scale, inputs: &Inputs) -> Self {
        let mut b = Self {
            mesh: scale.mesh(),
            ks: inputs.domain_counts.clone(),
            pool: spec::pool(),
            net: spec::network(),
            weighted: None,
            prev: Vec::new(),
        };
        b.prev = b.call(b.ks.len() - 1).part;
        b
    }
}

impl Sfc {
    fn k(&self, i: usize) -> usize {
        self.ks[i % self.ks.len()]
    }
}

impl Bench for Sfc {
    type Out = PortfolioOutcome;

    fn cells(&self) -> usize {
        self.mesh.n_cells()
    }

    fn call(&mut self, i: usize) -> PortfolioOutcome {
        let cfg = spec::pipeline_config(SFC, self.k(i), 0);
        run_portfolio_network_traced(
            &self.mesh,
            &cfg,
            &self.net,
            WORKERS,
            &self.pool,
            Recorder::off(),
        )
    }

    fn check(&mut self, i: usize, out: PortfolioOutcome) -> Result<Outcome, String> {
        let k = self.k(i);
        let mesh = &self.mesh;
        let g = self
            .weighted
            .get_or_insert_with(|| spec::weighted_graph(mesh, &mesh.to_graph(), SFC));
        let imbalance = check::partition(g, &out.part, k)?;
        let dd = DomainDecomposition::new_sharded(mesh, &out.part, k, WORKERS);
        let net = self
            .net
            .clone()
            .with_halo(&dd, TaskGraphConfig::default().face_payload_bytes);
        check::race(
            &out.graph,
            &out.leaderboard,
            &spec::cluster(),
            &out.process_of,
            &net,
        )?;
        let migration = migration_volume(g, &self.prev, &out.part);
        let outcome = Outcome {
            fingerprint: portfolio_fingerprint(&out),
            makespan: out.leaderboard.winner().makespan,
            edge_cut: out.quality.edge_cut,
            imbalance,
            migration,
        };
        self.prev = out.part;
        Ok(outcome)
    }
}

/// Output of one drift step.
pub struct StepOut {
    /// The drifted, strategy-weighted cell graph.
    pub graph: CsrGraph,
    /// Partition before the step.
    pub old: Vec<PartId>,
    /// The diffusion repartitioner's stats.
    pub stats: RepartStats,
    /// Migration ledger of the step.
    pub migration: MigrationStats,
    /// Quality after the step.
    pub quality: PartitionQuality,
}

/// `repart-drift-d5`: one diffusion step of a drifting front per op. The
/// run's inputs are several sequences of `steps` drift steps, each with its
/// own drift seed and its own initial partition; op `i` is step
/// `i % steps + 1` of sequence `i / steps`, and every pass over the inputs
/// restarts each sequence from its initial partition.
pub struct Repart {
    mesh: Mesh,
    topology: CsrGraph,
    drifts: Vec<DriftConfig>,
    k: usize,
    steps: usize,
    pool: WorkspacePool,
    part0: Vec<Vec<PartId>>,
    part: Vec<PartId>,
}

impl Repart {
    /// Generates the mesh, computes each sequence's initial MC_TL partition
    /// (after its drift step 0) and runs one warm-up step.
    pub fn setup(scale: &Scale, inputs: &Inputs) -> Self {
        let mut mesh = scale.mesh();
        let pool = spec::pool();
        let part0: Vec<Vec<PartId>> = inputs
            .drifts
            .iter()
            .map(|drift| {
                drift.apply(&mut mesh, 0);
                decompose_par_traced(
                    &mesh,
                    PartitionStrategy::McTl,
                    scale.domains,
                    inputs.part_seeds[0],
                    WORKERS,
                    &pool,
                    Recorder::off(),
                )
            })
            .collect();
        let mut b = Self {
            topology: mesh.to_graph(),
            mesh,
            drifts: inputs.drifts.clone(),
            k: scale.domains,
            steps: scale.steps,
            pool,
            part: part0[0].clone(),
            part0,
        };
        b.call(0);
        b.part.clone_from(&b.part0[0]);
        b
    }

    /// Sequence and drift step of op `i`.
    fn step(&self, i: usize) -> (usize, u32) {
        let seq = (i / self.steps) % self.drifts.len();
        (seq, (i % self.steps) as u32 + 1)
    }
}

/// FLUSIM makespan of `part` on `mesh` (eager FIFO, free communication),
/// with the schedule checked.
pub fn simulated_makespan(mesh: &Mesh, part: &[PartId], k: usize) -> Result<u64, String> {
    let dd = DomainDecomposition::new_sharded(mesh, part, k, WORKERS);
    let graph = generate_taskgraph_traced(mesh, &dd, &TaskGraphConfig::default(), Recorder::off());
    let process_of = block_process_map(k, spec::PROCESSES);
    let sim = simulate_traced(
        &graph,
        &spec::cluster(),
        &process_of,
        Strategy::EagerFifo,
        Recorder::off(),
    );
    check::schedule(&graph, &sim)?;
    Ok(sim.makespan)
}

impl Bench for Repart {
    type Out = StepOut;

    fn cells(&self) -> usize {
        self.mesh.n_cells()
    }

    fn call(&mut self, i: usize) -> StepOut {
        let (seq, step) = self.step(i);
        self.drifts[seq].apply(&mut self.mesh, step);
        let graph = spec::weighted_graph(&self.mesh, &self.topology, PartitionStrategy::McTl);
        let old = self.part.clone();
        let cfg = spec::repart_config(self.k, graph.ncon());
        let stats = repartition_par(
            &graph,
            &mut self.part,
            &cfg,
            WORKERS,
            &self.pool,
            Recorder::off(),
        );
        let migration = MigrationStats::measure(&graph, &old, &self.part, self.k, PAYLOAD_BYTES);
        let quality = PartitionQuality::measure(&graph, &self.part, self.k);
        StepOut {
            graph,
            old,
            stats,
            migration,
            quality,
        }
    }

    fn check(&mut self, i: usize, out: StepOut) -> Result<Outcome, String> {
        let result = (|| {
            let imbalance = check::partition(&out.graph, &self.part, self.k)?;
            let volume = migration_volume(&out.graph, &out.old, &self.part);
            if out.migration.volume != volume {
                return Err(format!(
                    "MigrationStats volume {} != migration_volume {volume}",
                    out.migration.volume
                ));
            }
            // Outputs repeat exactly on every pass, so only the first pass
            // pays for the simulation.
            let makespan = if i < self.steps * self.drifts.len() {
                simulated_makespan(&self.mesh, &self.part, self.k)?
            } else {
                0
            };
            Ok(Outcome {
                fingerprint: check::fingerprint([
                    check::part_fingerprint(&self.part),
                    quality_fingerprint(&out.quality),
                    out.stats.volume_moved,
                ]),
                makespan,
                edge_cut: out.quality.edge_cut,
                imbalance,
                migration: out.migration.volume,
            })
        })();
        if self.step(i).1 as usize == self.steps {
            let next = self.step(i + 1).0;
            self.part.clone_from(&self.part0[next]);
        }
        result
    }
}

/// Runs `setup` `scale.setup_reps` times (keeping the last), then the op
/// loop for at least `seconds` in whole passes over the distinct inputs,
/// and returns the end-to-end metrics plus the run's failures. Each set-up
/// and op time is scaled to nominal host speed by the calibration kernel run
/// right after it (see [`crate::calib`]). Peak RSS is read after the first
/// pass, a fixed amount of work: the workspace pools keep growing with the
/// op count.
pub fn measure<B: Bench>(
    workload: Workload,
    setup: impl Fn() -> B,
    scale: &Scale,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Vec<Metric>, usize, usize) {
    let mut cal = Calibration::default();
    let mut wall_setups = Vec::with_capacity(scale.setup_reps);
    let mut setups = Vec::with_capacity(scale.setup_reps);
    let mut bench = None;
    for _ in 0..scale.setup_reps {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(black_box(setup()));
        let s = t.elapsed().as_secs_f64();
        wall_setups.push(s);
        setups.push(s * cal.factor());
    }
    let mut b = bench.expect("at least one set-up");
    lines.push(format!("set-ups (wall): {wall_setups:.3?} s"));
    let n = scale.distinct;
    let budget = Duration::from_secs_f64(seconds);
    let mut wall_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut first: Vec<Option<Outcome>> = Vec::with_capacity(n);
    let mut failed = 0;
    let mut rss_bytes = 0;
    let start = Instant::now();
    let mut i = 0;
    // Whole passes only, so every input weighs the same in the medians.
    while i < n || start.elapsed() < budget || i % n != 0 {
        let t = Instant::now();
        let out = black_box(b.call(i));
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        op_ms.push(wall_ms[i] * cal.factor());
        let first_pass = first.get(i % n).filter(|_| i >= n);
        let checked = b.check(i, out).and_then(|o| match first_pass {
            Some(Some(f)) if f.fingerprint != o.fingerprint => Err(format!(
                "output {:#018x} differs from the first pass {:#018x}",
                o.fingerprint, f.fingerprint
            )),
            _ => Ok(o),
        });
        match checked {
            Ok(o) => {
                if i < n {
                    lines.push(format!(
                        "op {i}: {:.3} ms wall, makespan {}, edge cut {}, imbalance {:.4}, migration {}",
                        wall_ms[i], o.makespan, o.edge_cut, o.imbalance, o.migration
                    ));
                    first.push(Some(o));
                }
            }
            Err(e) => {
                failed += 1;
                lines.push(format!("op {i} failed: {e}"));
                if i < n {
                    first.push(None);
                }
            }
        }
        if i + 1 == n {
            rss_bytes = tempart_testkit::mem::peak_rss_bytes().unwrap_or(0);
        }
        i += 1;
    }
    let ops = op_ms.len();
    let checked: Vec<&Outcome> = first.iter().flatten().collect();
    let quality =
        |f: fn(&Outcome) -> f64| median(&checked.iter().map(|o| f(o)).collect::<Vec<_>>());
    let total_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    lines.push(host_line(workload, b.cells(), scale));
    lines.push(format!(
        "calibration kernel: median {:.3} ms (nominal {NOMINAL_MS}, n={}); wall op p50 {:.3} ms",
        median(&cal.samples_ms),
        cal.samples_ms.len(),
        median(&wall_ms),
    ));
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new("op_p50_ms", "ms", median(&op_ms), ops),
        Metric::new(
            "cells_per_s",
            "1/s",
            (b.cells() * ops) as f64 / total_s,
            ops,
        ),
        Metric::new(
            "makespan",
            "cost_units",
            quality(|o| o.makespan as f64),
            checked.len(),
        ),
        Metric::new(
            "edge_cut",
            "count",
            quality(|o| o.edge_cut as f64),
            checked.len(),
        ),
        Metric::new(
            "imbalance_max",
            "ratio",
            quality(|o| o.imbalance),
            checked.len(),
        ),
        Metric::new(
            "migration_volume",
            "count",
            quality(|o| o.migration as f64),
            checked.len(),
        ),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            rss_bytes as f64 / (1u64 << 20) as f64,
            1,
        ),
        Metric::new(
            "ops_ok_ratio",
            "ratio",
            (ops - failed) as f64 / ops as f64,
            ops,
        ),
    ];
    (metrics, ops, failed)
}

/// The untraced run of `workload`.
pub fn run(
    workload: Workload,
    scale: &Scale,
    inputs: &Inputs,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Vec<Metric>, usize, usize) {
    match workload {
        Workload::MctlPipeline => measure(
            workload,
            || Mctl::setup(scale, inputs),
            scale,
            seconds,
            lines,
        ),
        Workload::SfcRace => measure(
            workload,
            || Sfc::setup(scale, inputs),
            scale,
            seconds,
            lines,
        ),
        Workload::ReparDrift => measure(
            workload,
            || Repart::setup(scale, inputs),
            scale,
            seconds,
            lines,
        ),
    }
}
