//! Command-line driver: `experiments <name>... [--seed N] [--csv DIR]`.
//!
//! Names: `fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table1 table2 timers
//! intranode clc online ablations all` (no name means `all`). Every run
//! uses the paper's durations. A section with claims prints one `claim
//! <id>: holds|FAILS — <statement>` line per claim; the process exits 1 if
//! any claim it printed fails, and 2 on an unknown name or option.
//! `crates/experiments/golden/all_seed2008.txt` is the output of
//! `experiments all` (seed 2008).

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
    seed: u64,
    csv_dir: Option<PathBuf>,
}

/// Parse the arguments after the program name. The value after `--seed`
/// or `--csv` is never taken for a section name.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { names: Vec::new(), seed: 2008, csv_dir: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
    let Args { names, seed, csv_dir } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let all = names.contains(&"all");
    let has = |n: &str| all || names.contains(&n);
    let save_series = |names: &[&str], outcomes: &[deviations::DeviationOutcome]| {
        if let Some(dir) = &csv_dir {
            for (name, o) in names.iter().zip(outcomes) {
                csvout::save_series(dir, name, &o.series).expect("csv written");
            }
        }
    };
    let mut claims = Vec::new();

    println!("# drift-lab experiment campaign (seed {seed})");
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
    // Table II's extension measures each platform's inter-node latency,
    // which Fig. 5's and Fig. 6's residuals are held against.
    let platforms =
        (has("table2") || has("fig5") || has("fig6")).then(|| tables::table2_platforms(2000, seed));
    let latency = platforms.as_ref().map(|rows| rows.each_ref().map(|(_, m)| m.mean_us()));
    if has("table2") {
        claims.extend(tables::print_table2(&tables::table2(5000, seed)));
        tables::print_table2_platforms(platforms.as_ref().expect("measured above"));
    }
    if has("timers") {
        tables::print_timer_taxonomy(seed);
    }
    if has("fig4") {
        let outcomes = deviations::fig4(seed);
        claims.extend(deviations::print_fig4(&outcomes));
        save_series(&["fig4a", "fig4b", "fig4c"], &outcomes);
    }
    if has("fig5") {
        let outcomes = deviations::fig5(seed + 10);
        claims.extend(deviations::print_fig5(&outcomes, &latency.expect("measured above")));
        save_series(&["fig5a", "fig5b", "fig5c"], &outcomes);
    }
    if has("fig6") {
        let outcome = deviations::fig6(common::RunLength::short(), seed + 22);
        let [xeon, ..] = latency.expect("measured above");
        claims.extend(deviations::print_fig6(&outcome, xeon));
        save_series(&["fig6"], std::slice::from_ref(&outcome));
    }
    if has("fig7") {
        let rows = fig7::fig7(4, 3, seed + 30);
        claims.extend(fig7::print_rows(&rows));
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
        let rows = fig8::fig8(400, 3, seed + 40);
        claims.extend(fig8::print_rows(&rows, 3, 400));
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
        claims.extend(intranode::print_intranode(&intranode::intranode(300.0, seed + 50), 300.0));
    }
    if has("clc") {
        claims.extend(clc_exp::print_clc(&clc_exp::clc_survey(4, seed + 60)));
    }
    if has("online") {
        let rows = online_exp::print_online(2500, seed + 90);
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
    let failed = claims.iter().filter(|c| !c.holds).count();
    println!("\n# claims: {} hold, {failed} fail", claims.len() - failed);
    if failed > 0 {
        std::process::exit(1);
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
        let err = parse("fgi7").unwrap_err();
        assert!(err.contains("fgi7") && err.contains("fig7 fig8"), "{err}");
        let err = parse("all --fast").unwrap_err();
        assert!(err.contains("\"--fast\""), "the campaign has one length: {err}");
        let args = parse("table1 --csv fig1 --seed 7").unwrap();
        assert_eq!(args.names, ["table1"]);
        assert_eq!(args.csv_dir, Some(PathBuf::from("fig1")));
        assert_eq!(args.seed, 7);
        assert_eq!(parse("--seed 9").unwrap().names, ["all"]);
        assert!(parse("--seed fig1").is_err());
        assert!(parse("clc --csv").is_err());
    }
}
