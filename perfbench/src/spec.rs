//! What each workload runs: mesh, domain counts, cluster, network and the
//! per-op inputs generated from the workload seed.

use tempart_core::{default_repart_config, PartitionStrategy, PipelineConfig, WorkspacePool};
use tempart_flusim::{parse_preset, ClusterConfig, NetworkModel, Strategy};
use tempart_graph::{CsrGraph, Weight};
use tempart_mesh::{cylinder_like, DriftConfig, GeneratorConfig, Mesh};
use tempart_partition::{Curve, PartitionConfig, RepartConfig};
use tempart_testkit::rng::Rng;

/// Fork-join width of every call the benchmark measures (the host has two
/// cores; speedups are measured against one worker separately).
pub const WORKERS: usize = 2;
/// FLUSIM cluster of every simulated op: 16 processes × 32 cores.
pub const PROCESSES: usize = 16;
/// Cores per simulated process.
pub const CORES: usize = 32;
/// Two-level network preset raced by `sfc-race-d6`.
pub const NET_PRESET: &str = "two-level:400:2:4:2";
/// Amplitude of the seeded centre wobble of the drifting front.
pub const DRIFT_JITTER: f64 = 0.005;
/// Migration payload per moved cell, as `core::repartition_sequence` prices it.
pub const PAYLOAD_BYTES: u64 = 40;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm-pool MC_TL `core` pipeline calls with fresh partitioner seeds.
    MctlPipeline,
    /// SFC_OC Hilbert partition + 24-combo race under a two-level network.
    SfcRace,
    /// Diffusion repartitioning steps of a drifting refinement front.
    ReparDrift,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MctlPipeline,
        Workload::SfcRace,
        Workload::ReparDrift,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MctlPipeline => "mctl-pipeline-d5",
            Workload::SfcRace => "sfc-race-d6",
            Workload::ReparDrift => "repart-drift-d5",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one run. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] runs the same code on a mesh small enough for a test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Octree base depth of the graded CYLINDER mesh.
    pub depth: u8,
    /// Domain count of the multilevel and repartitioning ops (and of the
    /// layer probes).
    pub domains: usize,
    /// Inclusive range the `sfc-race-d6` domain counts are drawn from.
    pub sfc_domains: (usize, usize),
    /// Distinct op inputs per run; every one runs at least once, so the
    /// quality metrics are a function of the seed alone.
    pub distinct: usize,
    /// `repart-drift-d5`: drift steps per sequence; the run has
    /// `distinct / steps` sequences, each with its own drift seed.
    pub steps: usize,
    /// Times the set-up is repeated to take the median `setup_s`.
    pub setup_reps: usize,
    /// Minimum number of ops the traced run replays layer by layer.
    pub traced_ops: usize,
}

impl Scale {
    /// The benchmark's sizes for `workload`.
    pub fn full(workload: Workload) -> Self {
        let (depth, distinct) = match workload {
            Workload::MctlPipeline => (5, 16),
            Workload::SfcRace => (6, 32),
            Workload::ReparDrift => (5, 48),
        };
        Self {
            depth,
            domains: 128,
            sfc_domains: (512, 1024),
            distinct,
            steps: 8,
            setup_reps: 3,
            traced_ops: 3,
        }
    }

    /// A depth-3 mesh (736 cells) with proportionally small domain counts.
    pub fn tiny() -> Self {
        Self {
            depth: 3,
            domains: 8,
            sfc_domains: (8, 16),
            distinct: 6,
            steps: 3,
            setup_reps: 2,
            traced_ops: 2,
        }
    }

    /// Generates the benchmark mesh.
    pub fn mesh(&self) -> Mesh {
        cylinder_like(&GeneratorConfig {
            base_depth: self.depth,
        })
    }
}

/// The per-op inputs of one run, a pure function of `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `mctl-pipeline-d5`: one partitioner seed per op input;
    /// `repart-drift-d5`: the seed of the initial partition.
    pub part_seeds: Vec<u64>,
    /// `sfc-race-d6`: one domain count per op input.
    pub domain_counts: Vec<usize>,
    /// `repart-drift-d5`: one drift per sequence; their steps are the op
    /// inputs.
    pub drifts: Vec<DriftConfig>,
}

impl Inputs {
    /// Draws the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0xBE4C_4A11_0000_0000);
        let n = scale.distinct;
        let mut inputs = Inputs {
            part_seeds: Vec::new(),
            domain_counts: Vec::new(),
            drifts: Vec::new(),
        };
        match workload {
            Workload::MctlPipeline => {
                inputs.part_seeds = (0..n).map(|_| rng.next_u64()).collect();
            }
            Workload::SfcRace => {
                // Stratified: one draw from each of `n` equal slices of the
                // range, then shuffled, so every run covers the whole range
                // and the per-run medians do not wander with the seed.
                let (lo, hi) = scale.sfc_domains;
                let span = hi - lo + 1;
                let mut ks: Vec<usize> = (0..n)
                    .map(|j| {
                        let a = lo + j * span / n;
                        let b = lo + (j + 1) * span / n;
                        a + (rng.next_u64() % (b - a) as u64) as usize
                    })
                    .collect();
                for j in (1..ks.len()).rev() {
                    ks.swap(j, (rng.next_u64() % (j as u64 + 1)) as usize);
                }
                inputs.domain_counts = ks;
            }
            Workload::ReparDrift => {
                inputs.part_seeds = vec![rng.next_u64()];
                inputs.drifts = (0..n / scale.steps)
                    .map(|_| {
                        DriftConfig::graded_cylinder().with_jitter(DRIFT_JITTER, rng.next_u64())
                    })
                    .collect();
            }
        }
        inputs
    }

    /// One line per input, printed so a run can be replayed and checked.
    pub fn describe(&self, workload: Workload, n: usize) -> Vec<String> {
        match workload {
            Workload::MctlPipeline => self
                .part_seeds
                .iter()
                .enumerate()
                .map(|(i, s)| format!("input {i}: partitioner seed {s:#018x}"))
                .collect(),
            Workload::SfcRace => self
                .domain_counts
                .iter()
                .enumerate()
                .map(|(i, k)| format!("input {i}: {k} domains"))
                .collect(),
            Workload::ReparDrift => {
                let mut lines = vec![format!(
                    "initial partitioner seed {:#018x}, jitter {DRIFT_JITTER}",
                    self.part_seeds[0]
                )];
                let steps = n / self.drifts.len();
                for (j, drift) in self.drifts.iter().enumerate() {
                    lines.push(format!("sequence {j}: drift seed {:#018x}", drift.seed));
                    for step in 1..=steps {
                        let c = drift.centre_at(step as u32);
                        lines.push(format!(
                            "input {}: sequence {j} step {step}, centre [{:.6}, {:.6}, {:.6}]",
                            j * steps + step - 1,
                            c[0],
                            c[1],
                            c[2]
                        ));
                    }
                }
                lines
            }
        }
    }
}

/// The cluster every simulated op runs on.
pub fn cluster() -> ClusterConfig {
    ClusterConfig::new(PROCESSES, CORES)
}

/// The network model of `sfc-race-d6`.
pub fn network() -> NetworkModel {
    parse_preset(NET_PRESET).expect("the benchmark's network preset parses")
}

/// The `core` pipeline configuration of one op.
pub fn pipeline_config(strategy: PartitionStrategy, n_domains: usize, seed: u64) -> PipelineConfig {
    PipelineConfig {
        strategy,
        n_domains,
        cluster: cluster(),
        scheduling: Strategy::EagerFifo,
        seed,
    }
}

/// SFC_OC along the Hilbert curve.
pub const SFC: PartitionStrategy = PartitionStrategy::SfcOc {
    curve: Curve::Hilbert,
};

/// The partitioner settings `core` uses for a multilevel strategy (ub 1.10
/// for multi-constraint weights, 1.05 otherwise). The traced replica calls
/// the partitioner with these; its fingerprint check against the `core`
/// call fails if `core` changes them.
pub fn multilevel_config(n_domains: usize, ncon: usize, seed: u64) -> PartitionConfig {
    let ub = if ncon > 1 { 1.10 } else { 1.05 };
    PartitionConfig::new(n_domains).with_ub(ub).with_seed(seed)
}

/// The diffusion settings of one drift step (unbounded migration).
pub fn repart_config(n_domains: usize, ncon: usize) -> RepartConfig {
    default_repart_config(n_domains, ncon, None)
}

/// The cell graph weighted for `strategy`.
pub fn weighted_graph(mesh: &Mesh, topology: &CsrGraph, strategy: PartitionStrategy) -> CsrGraph {
    let (w, ncon): (Vec<Weight>, usize) = tempart_core::strategy_weights(mesh, strategy);
    topology.with_vertex_weights(w, ncon)
}

/// A warm-able workspace pool sized for [`WORKERS`].
pub fn pool() -> WorkspacePool {
    WorkspacePool::new(WORKERS)
}
