//! Distributed k-means clustering — a Big-Data-style workload of the kind
//! the paper cites as Java's home turf (Spark/Hadoop analytics).
//!
//! Each rank holds a shard of 2-D points in managed arrays. Every
//! iteration it assigns points to the nearest centroid, accumulates
//! per-cluster sums locally, and combines them with `allreduce` (arrays
//! API). Centroids are identical on every rank by construction — no
//! final broadcast needed — and the run is verified against a sequential
//! reference.
//!
//! Run with: `cargo run --example kmeans`

use mvapich2j::{run_job, JobConfig, ReduceOp, Topology};

const K: usize = 3;
const POINTS_PER_RANK: usize = 200;
const ITERS: usize = 12;

/// Deterministic pseudo-random point cloud around three true centres.
fn point(global_idx: usize) -> (f64, f64) {
    let centres = [(0.0, 0.0), (8.0, 8.0), (-6.0, 7.0)];
    let c = centres[global_idx % 3];
    // Cheap LCG noise in [-1, 1).
    let mut s = (global_idx as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (c.0 + next(), c.1 + next())
}

fn assign(px: f64, py: f64, cx: &[f64], cy: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for k in 0..K {
        let d = (px - cx[k]).powi(2) + (py - cy[k]).powi(2);
        if d < best_d {
            best_d = d;
            best = k;
        }
    }
    best
}

/// Sequential reference implementation over the full data set.
fn reference(n_total: usize) -> (Vec<f64>, Vec<f64>) {
    let pts: Vec<(f64, f64)> = (0..n_total).map(point).collect();
    let mut cx: Vec<f64> = (0..K).map(|k| pts[k].0).collect();
    let mut cy: Vec<f64> = (0..K).map(|k| pts[k].1).collect();
    for _ in 0..ITERS {
        let mut sx = [0.0; K];
        let mut sy = [0.0; K];
        let mut cnt = [0.0; K];
        for &(px, py) in &pts {
            let k = assign(px, py, &cx, &cy);
            sx[k] += px;
            sy[k] += py;
            cnt[k] += 1.0;
        }
        for k in 0..K {
            if cnt[k] > 0.0 {
                cx[k] = sx[k] / cnt[k];
                cy[k] = sy[k] / cnt[k];
            }
        }
    }
    (cx, cy)
}

fn main() {
    let topo = Topology::new(2, 2);
    let p = topo.size();
    let n_total = POINTS_PER_RANK * p;
    let (ref_cx, ref_cy) = reference(n_total);

    let results = run_job(JobConfig::mvapich2j(topo), |env| {
        let world = env.world();
        let me = env.rank();

        // Load this rank's shard into managed arrays.
        let xs = env.new_array::<f64>(POINTS_PER_RANK).unwrap();
        let ys = env.new_array::<f64>(POINTS_PER_RANK).unwrap();
        for i in 0..POINTS_PER_RANK {
            let (px, py) = point(me * POINTS_PER_RANK + i);
            env.array_set(xs, i, px).unwrap();
            env.array_set(ys, i, py).unwrap();
        }

        // Initial centroids: the first K global points (same everywhere).
        let mut cx: Vec<f64> = (0..K).map(|k| point(k).0).collect();
        let mut cy: Vec<f64> = (0..K).map(|k| point(k).1).collect();

        // Accumulators as managed arrays: [sx.. sy.. count..].
        let local = env.new_array::<f64>(3 * K).unwrap();
        let global = env.new_array::<f64>(3 * K).unwrap();

        for _ in 0..ITERS {
            let mut acc = vec![0.0f64; 3 * K];
            for i in 0..POINTS_PER_RANK {
                let px = env.array_get(xs, i).unwrap();
                let py = env.array_get(ys, i).unwrap();
                let k = assign(px, py, &cx, &cy);
                acc[k] += px;
                acc[K + k] += py;
                acc[2 * K + k] += 1.0;
            }
            env.array_write(local, 0, &acc).unwrap();
            // Combine partial sums across ranks (arrays API).
            env.allreduce_array(local, global, 3 * K as i32, ReduceOp::Sum, world)
                .unwrap();
            let mut tot = vec![0.0f64; 3 * K];
            env.array_read(global, 0, &mut tot).unwrap();
            for k in 0..K {
                if tot[2 * K + k] > 0.0 {
                    cx[k] = tot[k] / tot[2 * K + k];
                    cy[k] = tot[K + k] / tot[2 * K + k];
                }
            }
        }
        (me, cx, cy, env.wtime() * 1e6)
    });

    println!("kmeans: {K} clusters, {n_total} points on {p} ranks, {ITERS} iterations");
    for k in 0..K {
        println!(
            "  centroid {k}: ({:8.4}, {:8.4})  reference ({:8.4}, {:8.4})",
            results[0].1[k], results[0].2[k], ref_cx[k], ref_cy[k]
        );
    }
    // All ranks converge to identical centroids, matching the reference.
    for (rank, cx, cy, _) in &results {
        for k in 0..K {
            assert!(
                (cx[k] - ref_cx[k]).abs() < 1e-9 && (cy[k] - ref_cy[k]).abs() < 1e-9,
                "rank {rank} centroid {k} diverged from reference"
            );
        }
    }
    println!("  virtual time: {:.1} us per rank", results[0].3);
    println!("kmeans OK: distributed centroids match the sequential reference");
}
