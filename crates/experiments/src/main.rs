//! Command-line driver: `experiments <name>... [--fast] [--seed N] [--csv DIR]`.
//!
//! Names: `fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table1 table2 timers
//! intranode clc online ablations all` (no name means `all`). `--fast`
//! shortens the long deviation runs and shrinks the application workloads so
//! the whole campaign completes in well under a minute; without it the runs
//! use the paper's full durations. An unknown name or option exits non-zero.

#![forbid(unsafe_code)]

use experiments::*;
use std::path::PathBuf;

/// Every section name the driver knows, in the order it prints them.
const SECTIONS: [&str; 16] = [
    "fig1", "fig2", "fig3", "table1", "table2", "timers", "fig4", "fig5", "fig6", "fig7", "fig8",
    "intranode", "clc", "online", "ablations", "all",
];

/// A parsed command line.
#[derive(Debug)]
struct Args {
    names: Vec<&'static str>,
    fast: bool,
    seed: u64,
    csv_dir: Option<PathBuf>,
}

/// Parse the arguments after the program name. The value after `--seed`
/// or `--csv` is never taken for a section name.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { names: Vec::new(), fast: false, seed: 2008, csv_dir: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => parsed.fast = true,
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                parsed.seed = value.parse().map_err(|_| format!("--seed {value}: not a u64"))?;
            }
            "--csv" => parsed.csv_dir = Some(it.next().ok_or("--csv needs a directory")?.into()),
            other => match SECTIONS.iter().find(|&&name| name == other) {
                Some(&name) => parsed.names.push(name),
                None => {
                    let sections = SECTIONS.join(" ");
                    return Err(format!("unknown argument {other:?}; sections: {sections}"));
                }
            },
        }
    }
    if parsed.names.is_empty() {
        parsed.names.push("all");
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { names, fast, seed, csv_dir } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let all = names.contains(&"all");
    // Scale divisors under --fast.
    let dev_scale = if fast { 10.0 } else { 1.0 };
    let app_scale = if fast { 30 } else { 4 };
    let fig8_regions = if fast { 120 } else { 400 };
    let has = |n: &str| all || names.contains(&n);

    println!("# drift-lab experiment campaign (seed {seed}, fast={fast})");
    if has("fig1") {
        fig1_2_3::print_fig1();
    }
    if has("fig2") {
        fig1_2_3::print_fig2();
    }
    if has("fig3") {
        fig1_2_3::print_fig3(seed);
    }
    if has("table1") {
        tables::print_table1();
    }
    if has("table2") {
        tables::print_table2(if fast { 500 } else { 5000 }, seed);
        tables::print_table2_platforms(if fast { 300 } else { 2000 }, seed);
    }
    if has("timers") {
        tables::print_timer_taxonomy(seed);
    }
    if has("fig4") {
        let outcomes = deviations::print_fig4(dev_scale, seed);
        if let Some(dir) = &csv_dir {
            for (name, o) in &outcomes {
                csvout::save_series(dir, name, &o.series).expect("csv written");
            }
        }
    }
    if has("fig5") {
        let outcomes = deviations::print_fig5(dev_scale, seed + 10);
        if let Some(dir) = &csv_dir {
            for (name, o) in &outcomes {
                csvout::save_series(dir, name, &o.series).expect("csv written");
            }
        }
    }
    if has("fig6") {
        let o = deviations::print_fig6(if fast { 2.0 } else { 1.0 }, seed + 22);
        if let Some(dir) = &csv_dir {
            csvout::save_series(dir, "fig6", &o.series).expect("csv written");
        }
    }
    if has("fig7") {
        let rows = fig7::fig7(app_scale, 3, seed + 30);
        fig7::print_rows(&rows);
        if let Some(dir) = &csv_dir {
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.app.to_string(),
                        format!("{:.3}", r.reversed_pct),
                        format!("{:.3}", r.violated_pct),
                        format!("{:.3}", r.message_event_pct),
                    ]
                })
                .collect();
            csvout::save_rows(dir, "fig7", "app,reversed_pct,violated_pct,message_event_pct", &table)
                .expect("csv written");
        }
    }
    if has("fig8") {
        let rows = fig8::fig8(fig8_regions, 3, seed + 40);
        fig8::print_rows(&rows, 3, fig8_regions);
        if let Some(dir) = &csv_dir {
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.threads.to_string(),
                        format!("{:.2}", r.any_pct),
                        format!("{:.2}", r.entry_pct),
                        format!("{:.2}", r.exit_pct),
                        format!("{:.2}", r.barrier_pct),
                    ]
                })
                .collect();
            csvout::save_rows(dir, "fig8", "threads,any_pct,entry_pct,exit_pct,barrier_pct", &table)
                .expect("csv written");
        }
    }
    if has("intranode") {
        intranode::print_intranode(if fast { 60.0 } else { 300.0 }, seed + 50);
    }
    if has("clc") {
        clc_exp::print_clc(app_scale, seed + 60);
    }
    if has("online") {
        let rows = online_exp::print_online(if fast { 600 } else { 2500 }, seed + 90);
        if let Some(dir) = &csv_dir {
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.scenario.clone(),
                        r.messages.to_string(),
                        r.raw.to_string(),
                        r.interp.to_string(),
                        r.clc.to_string(),
                        r.online.to_string(),
                    ]
                })
                .collect();
            csvout::save_rows(dir, "online", "scenario,messages,raw,interp,clc,online", &table)
                .expect("csv written");
        }
    }
    if has("ablations") {
        ablations::print_ablations(seed + 70);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_names_fail_and_option_values_are_never_names() {
        let err = parse("fgi7 --fast").unwrap_err();
        assert!(err.contains("fgi7") && err.contains("fig7 fig8"), "{err}");
        let args = parse("table1 --csv fig1 --seed 7").unwrap();
        assert_eq!(args.names, ["table1"]);
        assert_eq!(args.csv_dir, Some(PathBuf::from("fig1")));
        assert_eq!(args.seed, 7);
        assert_eq!(parse("--seed 9 --fast").unwrap().names, ["all"]);
        assert!(parse("--seed fig1").is_err());
        assert!(parse("clc --csv").is_err());
    }
}
