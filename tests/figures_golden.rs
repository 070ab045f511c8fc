//! Golden digest of every regenerated figure at quick scale.
//!
//! `figures_shape.rs` checks directions with loose factors and
//! `figures_are_deterministic_across_runs` compares two runs of one
//! build; neither notices a simulated number that moves between builds.
//! This test pins them: it regenerates every figure at `Scale::Quick`
//! and folds each figure id, series label, point size and the exact bits
//! of each point value, plus the headline summary text, into one FNV-1a
//! digest. A change that moves any simulated figure number fails here
//! unless the digest is re-pinned in the same commit, with the reason
//! recorded in CHANGES.md.

use ombj_bench::figures::summary_from;
use ombj_bench::{all_figure_ids, run_figure, Figure, Scale};

/// The digest of the quick-scale figures and headline summary.
const QUICK_FIGURES_DIGEST: u64 = 0x912a_f377_4067_9d1b;

/// Fold bytes into a running 64-bit FNV-1a hash.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold a string and a terminator, so adjacent strings cannot alias.
fn fnv_str(h: &mut u64, s: &str) {
    fnv(h, s.as_bytes());
    fnv(h, &[0]);
}

#[test]
fn quick_figures_match_the_pinned_digest() {
    let figs: Vec<Figure> = all_figure_ids()
        .iter()
        .map(|id| run_figure(id, Scale::Quick))
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for fig in &figs {
        fnv_str(&mut h, fig.id);
        for s in &fig.series {
            fnv_str(&mut h, &s.label);
            for p in &s.points {
                fnv(&mut h, &(p.size as u64).to_le_bytes());
                fnv(&mut h, &p.value.to_bits().to_le_bytes());
            }
        }
    }
    let get = |id: &str| {
        figs.iter()
            .find(|f| f.id == id)
            .unwrap_or_else(|| panic!("{id} missing"))
    };
    let summary = summary_from(
        get("fig5"),
        get("fig11"),
        get("fig14"),
        get("fig15"),
        get("fig16"),
        get("fig17"),
        get("fig18"),
    );
    fnv_str(&mut h, &summary.to_string());
    assert_eq!(
        h, QUICK_FIGURES_DIGEST,
        "quick-scale figures moved: digest {h:#018x}; re-pin only with the reason in CHANGES.md"
    );
}
