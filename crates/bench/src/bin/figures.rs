//! Regenerate the paper's figures.
//!
//! ```text
//! figures [--only figN[,figM...]] [--quick] [--summary] [--trace]
//! ```
//!
//! * default: regenerate all of Figures 5–18 at full scale and print the
//!   headline summary;
//! * `--only`: restrict to specific figures;
//! * `--quick`: test-sized sweeps (same shapes, much faster);
//! * `--summary`: print only the headline summary;
//! * `--trace`: record virtual-time trace events during every run —
//!   instrumentation has zero virtual cost, so the printed figures are
//!   bit-identical with or without this flag (a workspace test enforces
//!   it).
//!
//! An unknown figure id, a missing `--only` list or an unknown argument
//! is a usage error (exit 2) reported before any figure runs.

use ombj::report::render_comparison;
use ombj_bench::figures::summary_from;
use ombj_bench::{all_figure_ids, run_figure, Figure, Scale};

fn print_figure(fig: &Figure) {
    let refs: Vec<&ombj::Series> = fig.series.iter().collect();
    print!(
        "{}",
        render_comparison(&format!("{}: {} [{}]", fig.id, fig.title, fig.unit), &refs)
    );
    for n in &fig.notes {
        println!("  note: {n}");
    }
    println!();
}

fn usage() -> ! {
    eprintln!("usage: figures [--only figN[,figM...]] [--quick] [--summary] [--trace]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Option<Vec<String>> = None;
    let mut scale = Scale::Full;
    let mut summary_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--only" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --only needs a figure list");
                    usage()
                };
                only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--quick" => scale = Scale::Quick,
            "--summary" => summary_only = true,
            "--trace" => ombj_bench::figures::set_tracing(true),
            other => {
                eprintln!("error: unknown argument {other}");
                usage()
            }
        }
    }

    let ids: Vec<&str> = match &only {
        Some(list) => list.iter().map(|s| s.as_str()).collect(),
        None => all_figure_ids().to_vec(),
    };
    // Check every id before any figure runs.
    if let Some(bad) = ids.iter().find(|id| !all_figure_ids().contains(id)) {
        eprintln!(
            "error: unknown figure id `{bad}` (valid ids: {})",
            all_figure_ids().join(", ")
        );
        std::process::exit(2);
    }

    if summary_only {
        let summary = ombj_bench::headline_summary(scale);
        print!("{summary}");
        return;
    }

    let mut figs: Vec<Figure> = Vec::new();
    for id in &ids {
        eprintln!("[figures] regenerating {id} ...");
        let fig = run_figure(id, scale);
        print_figure(&fig);
        figs.push(fig);
    }

    // Print the headline summary when every input figure is available.
    let need = ["fig5", "fig11", "fig14", "fig15", "fig16", "fig17", "fig18"];
    let get = |id: &str| figs.iter().find(|f| f.id == id);
    if need.iter().all(|id| get(id).is_some()) {
        let s = summary_from(
            get("fig5").unwrap(),
            get("fig11").unwrap(),
            get("fig14").unwrap(),
            get("fig15").unwrap(),
            get("fig16").unwrap(),
            get("fig17").unwrap(),
            get("fig18").unwrap(),
        );
        print!("{s}");
    }
}
