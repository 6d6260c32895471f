//! Output checks run after every op (outside its timed region) and the
//! fingerprints the fidelity checks compare.

use tempart_flusim::{
    simulate_lattice_with_network, DynamicListStrategy, Leaderboard, NetworkModel, SimResult,
};
use tempart_graph::{CsrGraph, PartId};
use tempart_taskgraph::TaskGraph;

/// Checks that `part` assigns every cell of `graph` to a part in `[0, k)`,
/// leaves no part empty and conserves every constraint's total weight.
/// Returns the worst per-constraint imbalance (max part weight over the
/// mean part weight, as `graph::constraint_imbalances` defines it).
pub fn partition(graph: &CsrGraph, part: &[PartId], k: usize) -> Result<f64, String> {
    if part.len() != graph.nvtx() {
        return Err(format!(
            "{} part ids for {} cells",
            part.len(),
            graph.nvtx()
        ));
    }
    let ncon = graph.ncon();
    let mut sums = vec![0i64; k * ncon];
    let mut cells = vec![0usize; k];
    for (v, &p) in part.iter().enumerate() {
        let p = p as usize;
        if p >= k {
            return Err(format!("cell {v} in part {p}, outside [0, {k})"));
        }
        cells[p] += 1;
        for (c, &w) in graph.vertex_weights(v as u32).iter().enumerate() {
            sums[p * ncon + c] += i64::from(w);
        }
    }
    if let Some(p) = cells.iter().position(|&n| n == 0) {
        return Err(format!("part {p} of {k} is empty"));
    }
    let mut imbalance = 1.0f64;
    for (c, &total) in graph.total_weights().iter().enumerate() {
        let per_part = (0..k).map(|p| sums[p * ncon + c]);
        let assigned: i64 = per_part.clone().sum();
        if assigned != total {
            return Err(format!(
                "constraint {c}: parts hold {assigned}, cells hold {total}"
            ));
        }
        if total > 0 {
            let max = per_part.max().unwrap_or(0);
            imbalance = imbalance.max(max as f64 * k as f64 / total as f64);
        }
    }
    Ok(imbalance)
}

/// Checks that `sim` ran every task of `graph` exactly once.
pub fn schedule(graph: &TaskGraph, sim: &SimResult) -> Result<(), String> {
    let mut seen = vec![false; graph.len()];
    for s in &sim.segments {
        let t = s.task as usize;
        match seen.get_mut(t) {
            None => return Err(format!("segment for unknown task {t}")),
            Some(true) => return Err(format!("task {t} scheduled twice")),
            Some(slot) => *slot = true,
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(t) => Err(format!("task {t} never scheduled")),
        None => Ok(()),
    }
}

/// Checks a race: all 24 lattice combos ran, each executed the DAG's whole
/// cost, and re-simulating the winner under the same (halo-sized) network
/// schedules every task exactly once with the leaderboard's makespan.
/// Returns the winner's re-simulation.
pub fn race(
    graph: &TaskGraph,
    board: &Leaderboard,
    cluster: &tempart_flusim::ClusterConfig,
    process_of: &[usize],
    net: &NetworkModel,
) -> Result<SimResult, String> {
    let combos = DynamicListStrategy::lattice().len();
    if board.entries.len() != combos {
        return Err(format!("{} of {combos} combos raced", board.entries.len()));
    }
    let total = graph.total_cost();
    if let Some(e) = board.entries.iter().find(|e| e.total_busy != total) {
        return Err(format!(
            "combo {} executed {} of {total} cost units",
            e.combo, e.total_busy
        ));
    }
    let winner = board.winner();
    let sim = simulate_lattice_with_network(graph, cluster, process_of, &winner.strategy, net);
    if sim.makespan != winner.makespan {
        return Err(format!(
            "winner re-simulates to makespan {} not {}",
            sim.makespan, winner.makespan
        ));
    }
    schedule(graph, &sim)?;
    Ok(sim)
}

/// FNV-1a over a sequence of words.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Fingerprint of a part vector.
pub fn part_fingerprint(part: &[PartId]) -> u64 {
    fingerprint(part.iter().map(|&p| u64::from(p)))
}
