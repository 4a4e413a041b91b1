//! A practical tool built on the reproduction: plan a tracing campaign.
//!
//! Given a platform and timer, answer the questions a performance engineer
//! actually has before tracing a long-running MPI job:
//!
//! 1. How long can I trace before Eq. 3 interpolation stops protecting the
//!    clock condition (and I must post-process with the CLC)?
//! 2. How often would I need mid-run probe epochs (Doleschal-style) to stay
//!    safe without the CLC?
//! 3. What violation probability should I expect for a message with a given
//!    slack at the middle of my run?
//!
//! ```sh
//! cargo run --release --example tracing_planner
//! ```

use drift_lab::experiments::survey::predict::{safe_run_length, violation_probability, WanderModel};
use drift_lab::prelude::*;

fn wander_of(platform: Platform, timer: TimerKind) -> WanderModel {
    let p = platform.clock_profile(timer, 60.0);
    WanderModel {
        step_sigma: p.walk_step_sigma,
        step_s: p.walk_step_s,
    }
}

fn main() {
    println!("== tracing-campaign planner ==\n");
    let setups = [
        (Platform::XeonCluster, TimerKind::IntelTsc, 4.29),
        (Platform::PowerPcCluster, TimerKind::IbmTimeBase, 6.65),
        (Platform::OpteronCluster, TimerKind::IntelTsc, 5.28),
    ];

    println!(
        "{:<18} {:<16} {:>12} {:>16} {:>20}",
        "platform", "timer", "l_min [us]", "safe run [s]", "probe epoch [s]"
    );
    for (platform, timer, lmin_us) in setups {
        let model = wander_of(platform, timer);
        let l = Dur::from_us_f64(lmin_us);
        let safe = safe_run_length(&model, l);
        // With periodic probes every E seconds, each inter-anchor segment
        // behaves like an independent bridge of length E: the safe epoch is
        // the same bound applied segment-wise.
        let epoch = safe;
        println!(
            "{:<18} {:<16} {:>12.2} {:>16.0} {:>20.0}",
            platform.label(),
            timer.label(),
            lmin_us,
            safe,
            epoch
        );
    }

    println!("\n== violation probability at mid-run (Xeon TSC) ==\n");
    let model = wander_of(Platform::XeonCluster, TimerKind::IntelTsc);
    println!(
        "{:>12} {:>16} {:>22}",
        "run [s]", "sigma_mid [us]", "P(violate | slack=2us)"
    );
    for run_s in [120.0, 300.0, 900.0, 1800.0, 3600.0] {
        let sigma = model.peak_bridge_std(run_s);
        let p = violation_probability(
            Dur::from_secs_f64(sigma),
            Dur::from_us(2), // a message with 2 µs of true slack
        );
        println!("{:>12.0} {:>16.2} {:>22.4}", run_s, sigma * 1e6, p);
    }

    println!("\nplan: for runs beyond the safe window, either budget periodic probe");
    println!("epochs (and accept their perturbation) or run the CLC postmortem —");
    println!("which is exactly the paper's §VI recommendation.");
}
