//! Blocking client for the `syncd` network protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;

pub use client::{ClientError, JobOutcome, JobRequest, JobSummary, SyncClient};
