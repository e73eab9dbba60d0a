//! Every table/figure reproduction of the paper's evaluation, one
//! section each.
//!
//! ```text
//! run_all                      every section, in paper order
//! run_all table1 fig5          just the named sections
//! run_all fig7 --scale 200     section names first, then the shared flags
//! ```
//!
//! A failing section (typed error *or* panic) does not take the sweep
//! down silently: the failure is reported, the remaining sections still
//! run, and the process exits nonzero if anything failed.

use std::panic::catch_unwind;

use tkspmv_bench::{banner, Cli};
use tkspmv_eval::experiments::{
    ablation, accuracy, datasets_table, packing, power, precision_table, resources_table, roofline,
    speedup,
};
use tkspmv_eval::report::Table;
use tkspmv_eval::EvalError;

/// A section's table and its paper-reference footer.
type Rendered = Result<(Table, String), EvalError>;

/// Command-line name, heading and body of one section.
type Section = (&'static str, &'static str, fn(&Cli) -> Rendered);

/// Every section, in paper order.
const SECTIONS: [Section; 10] = [
    (
        "table1",
        "Table I — Top-K precision vs partitions (k = 8)",
        |cli| {
            let rows = precision_table::run(cli.trials, cli.config.seed);
            let footer = "paper reference (N = 10^6): c=16 -> 0.942 @ K=100; c=32 -> 0.997 @ K=100";
            Ok((precision_table::to_table(&rows), footer.to_string()))
        },
    ),
    (
        "table2",
        "Table II — resources, clock, power (modelled)",
        |_| {
            let mut footer = "paper reference rows:".to_string();
            for (label, util, clock, power) in resources_table::paper_reference() {
                let [lut, ff, bram, uram, dsp] = util.map(|u| u * 100.0);
                footer.push_str(&format!(
                    "\n  {label}: LUT {lut:.0}% FF {ff:.0}% BRAM {bram:.0}% URAM {uram:.0}% \
                     DSP {dsp:.0}% | {clock} MHz | {power} W"
                ));
            }
            Ok((resources_table::to_table(&resources_table::run()), footer))
        },
    ),
    (
        "table3",
        "Table III — evaluation matrices, BS-CSR sizes",
        |cli| {
            let footer = "paper reference: uniform N=10^7 -> 2-4*10^8 nnz, 0.8-1.7 GB; naive COO \
                          would be 3x larger";
            let rows = datasets_table::run(&cli.config);
            Ok((datasets_table::to_table(&rows), footer.to_string()))
        },
    ),
    (
        "fig3",
        "Figure 3 — packet packing density (M < 1024, V = 20)",
        |_| {
            let footer = "paper reference: 5 / 8 / 15 non-zeros per packet (3x gain for BS-CSR)";
            Ok((packing::to_table(&packing::run()), footer.to_string()))
        },
    ),
    ("fig5", "Figure 5 — speedup vs CPU (K = 100)", |cli| {
        let rows = speedup::run(&cli.config)?;
        let mut footer =
            "paper reference (N = 10^7 panel): GPU F32 SpMV 51x, GPU F16 SpMV 58x,\n  \
             FPGA 20b 106x, 25b 88x, 32b 89x, F32 43x; FPGA 20b ~2x idealised GPU"
                .to_string();
        for r in &rows {
            footer.push_str(&format!(
                "\n  {}: FPGA20b/GPU-F32-SpMV ratio = {:.2}x, throughput {:.1} GNNZ/s",
                r.group.label(),
                r.speedup_of("fpga-20b")? / r.speedup_of("gpu-f32-spmv")?,
                r.fpga20_nnz_per_sec()? / 1e9,
            ));
        }
        Ok((speedup::to_table(&rows), footer))
    }),
    (
        "fig6",
        "Figure 6 — roofline: (a) GNNZ/s by cores and packet capacity B",
        |cli| {
            let footer = format!(
                "(b) architecture points (N = 10^7 dataset):\n{}\npaper reference: BS-CSR raises \
                 OI 3x (B=15 vs 5); FPGA has the highest\n  OI and performance; performance \
                 scales linearly with channels",
                roofline::points_table(&roofline::architecture_points(&cli.config)).to_markdown()
            );
            Ok((
                roofline::series_table(&roofline::bandwidth_series()),
                footer,
            ))
        },
    ),
    (
        "fig7",
        "Figure 7 — Top-K accuracy vs exact CPU results",
        |cli| {
            let footer =
                "paper reference: precision > 97% everywhere (even 20-bit);\n  FPGA 32b >= \
                 GPU F16 accuracy; minor dip only at large K";
            Ok((
                accuracy::to_table(&accuracy::run(&cli.config)),
                footer.to_string(),
            ))
        },
    ),
    ("power", "SV-B — performance per watt", |cli| {
        let footer = "paper reference: FPGA 35 W, CPU ~300 W, GPU 250 W; fixed-point FPGA\n  \
                      gives 400x CPU and 14.2x idealised-GPU performance per watt";
        Ok((
            power::to_table(&power::run(&cli.config)?),
            footer.to_string(),
        ))
    }),
    (
        "ablation_r",
        "Ablation SIV-B — r, row slots per packet",
        |cli| {
            let footer = "paper reference: B/4 < r < B/2 saves up to 50% logic, no accuracy loss";
            let rows = ablation::run_r_sweep(&cli.config);
            Ok((ablation::r_sweep_table(&rows), footer.to_string()))
        },
    ),
    (
        "ablation_layout",
        "Ablation SIV-C — packet layout space",
        |_| {
            let footer = "paper reference: B = 15 (V=20), 13 (V=25), 11 (V=32) at M = 1024";
            let table = ablation::layout_table(&ablation::run_layout_sweep());
            Ok((table, footer.to_string()))
        },
    ),
];

fn main() {
    // Leading bare words select sections; the shared flags follow.
    let mut picked: Vec<String> = std::env::args().skip(1).collect();
    let flags = picked.split_off(picked.iter().take_while(|a| !a.starts_with('-')).count());
    let names = SECTIONS.map(|(name, ..)| name).join(" ");
    let unknown = picked
        .iter()
        .find(|p| SECTIONS.iter().all(|(n, ..)| n != p));
    let cli = match (unknown, Cli::parse(flags)) {
        (None, Ok(cli)) => cli,
        (Some(name), _) => {
            eprintln!("unknown section `{name}`; sections (none = all): {names}");
            std::process::exit(2);
        }
        (None, Err(msg)) => {
            eprintln!("{msg}\nsections, before the flags (none = all): {names}");
            std::process::exit(2);
        }
    };
    banner(
        "Evaluation sweep",
        "DAC'21 Tables I-III, Figures 3, 5-7, SV-B power, + ablations",
        &cli,
    );

    let mut failures = Vec::new();
    for (name, title, body) in SECTIONS {
        if !picked.is_empty() && !picked.iter().any(|p| p == name) {
            continue;
        }
        println!("--- {title} ---");
        match catch_unwind(|| body(&cli)) {
            Ok(Ok((table, footer))) => println!("{}\n{footer}\n", table.to_markdown()),
            Ok(Err(error)) => {
                eprintln!("{name} failed: {error}");
                failures.push(name);
            }
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                eprintln!("{name} panicked: {detail}");
                failures.push(name);
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("\nsections failed: {}", failures.join(", "));
        std::process::exit(1);
    }
}
