//! Renders every `fig*.dat` series file the studies of `experiment`
//! write into standalone SVG line charts: the paper's Figures 1–4
//! (measured and published series side by side), the reservation
//! acceptance rates (`figR_*`) and SLDwA under outages (`figF_*`).
//!
//! ```text
//! cargo run --release -p dynp-sim --bin figures -- [RESULTS_DIR]
//! ```
//!
//! Each figure kind's axes are declared once, in `dynp_sim::study`; a
//! file of a kind no study writes is skipped with a message.

use dynp_sim::cli::Flags;
use dynp_sim::report::FigureData;
use dynp_sim::study::chart;
use dynp_sim::svg::write_chart;
use std::path::PathBuf;

fn main() {
    let mut flags = Flags::from_env(
        "usage: figures [RESULTS_DIR]\n\n\
         draws RESULTS_DIR/fig*.dat (default: results) as SVG next to them",
    );
    let mut dir = None;
    while let Some(arg) = flags.next_flag() {
        if arg.starts_with('-') {
            flags.unknown(&arg);
        }
        if dir.replace(PathBuf::from(&arg)).is_some() {
            flags.bail("name one results directory");
        }
    }
    let dir = dir.unwrap_or_else(|| PathBuf::from("results"));
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!(
                "cannot read {}: {e}\nrun `experiment table4 --out {}` first",
                dir.display(),
                dir.display()
            );
            std::process::exit(1);
        }
    };

    let mut rendered = 0;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("fig") && n.ends_with(".dat"))
        .collect();
    names.sort();

    for name in names {
        let stem = name.trim_end_matches(".dat");
        let Some(opts) = chart(stem) else {
            eprintln!("skipping {name}: no study writes this figure kind");
            continue;
        };
        let fig = match std::fs::read_to_string(dir.join(&name))
            .map_err(|e| e.to_string())
            .and_then(|text| FigureData::from_dat(&text))
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("skipping {name}: {e}");
                continue;
            }
        };
        match write_chart(&fig, &opts, &dir, stem) {
            Ok(()) => {
                println!("rendered {}/{stem}.svg", dir.display());
                rendered += 1;
            }
            Err(e) => eprintln!("failed to write {stem}.svg: {e}"),
        }
    }
    if rendered == 0 {
        eprintln!(
            "no fig*.dat files in {} — run `experiment table4 --out {}` first",
            dir.display(),
            dir.display()
        );
        std::process::exit(1);
    }
    println!("{rendered} figures rendered");
}
