//! # experiments — regenerate every table and figure of the paper
//!
//! Each module regenerates one piece of the paper's evaluation from the
//! simulated substrate, at the paper's durations, and prints the same
//! rows/series the paper reports. Where the paper states a claim about them,
//! one function per section judges it on those rows ([`common::Claim`]);
//! the `experiments` binary prints every verdict and exits 1 if one fails.
//!
//! | module | paper artefact |
//! |---|---|
//! | [`fig1_2_3`] | Figs. 1–3 (clock sketch, order semantics, Itanium violation) |
//! | [`tables`] | Tables I and II (pinnings, latencies) |
//! | [`deviations`] | Figs. 4–6 (deviations per timer/platform/correction) |
//! | [`fig7`] | Fig. 7 (reversed messages in POP/SMG traces) |
//! | [`fig8`] | Fig. 8 (OpenMP POMP violations vs. team size) |
//! | [`intranode`] | §IV intra-node noise finding |
//! | [`clc_exp`] | §V constructive survey (CLC + baselines + extensions) |
//! | [`online_exp`] | online filter vs. interp/CLC on static + churn scenarios |
//! | [`ablations`] | probe-count / anchor / μ / network-load ablations |
//! | [`survey`] | the §V baselines and extensions the survey compares with the CLC, and their error against the simulator's truth |
//! | [`csvout`] | CSV export (`--csv <dir>`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod clc_exp;
pub mod common;
pub mod csvout;
pub mod deviations;
pub mod fig1_2_3;
pub mod fig7;
pub mod fig8;
pub mod intranode;
pub mod online_exp;
pub mod survey;
pub mod tables;
