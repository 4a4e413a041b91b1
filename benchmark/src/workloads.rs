//! The four workloads: set-up from a seed, fully verified reference
//! outputs, and the timed job loops.
//!
//! Each workload stresses a different set of layers (the README has the
//! table). All of them are closed loops from a single load-generating
//! process with at most `nproc` = 2 threads: the next job is handed over
//! when the previous one has returned and been checked.

use crate::drive::{self, BatchInput, JobOut, NetInput, StreamInput};
use crate::host::{self, HostProbe};
use crate::measure::{Recorder, Sample, Shape};
use crate::verify;
use std::time::{Duration, Instant};

/// Workload names, in the order the interleaved run visits them.
pub const NAMES: [&str; 4] = ["pop_batch", "stream_windowed", "net_mixed", "online_churn"];

/// What set-up established about one distinct input. Two set-ups with one
/// seed must agree on every field; the determinism test and the repeated
/// set-ups of every run check that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputFacts {
    /// `workload` or `workload/class`.
    pub label: String,
    /// Events per job.
    pub events: u64,
    /// Bytes handed to a job.
    pub input_bytes: u64,
    /// Fingerprint of every corrected timestamp of the reference job.
    pub fingerprint: u64,
    /// Eq. 1 violations in the raw input (the program's census).
    pub raw_violations: u64,
    /// Eq. 1 violations left in the corrected output (the benchmark's
    /// own census of the reference job's output).
    pub residual_violations: u64,
}

/// A set-up workload.
pub trait Workload {
    /// One entry per distinct input.
    fn facts(&self) -> &[InputFacts];

    /// Run jobs back to back for `budget`, recording each. Returns the
    /// seconds `events_per_s` divides by: summed job wall time, or the
    /// round's wall time where several clients run at once.
    fn round(
        &mut self,
        budget: Duration,
        round: u32,
        traced: bool,
        host: &HostProbe,
        rec: &mut Recorder,
    ) -> f64;

    /// Traced run only: the layer probes of this workload, `(metric,
    /// value)`, plus any extra traced jobs recorded into `rec`.
    fn probe_layers(&mut self, reps: usize, rec: &mut Recorder) -> Vec<(&'static str, f64)>;

    /// Stop whatever set-up started.
    fn finish(self: Box<Self>) {}
}

/// SplitMix64 of `seed ^ salt`: every generator gets its own stream, and
/// none of them sees the benchmark seed itself.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set up the workload called `name` from `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "pop_batch" => Ok(Box::new(Batch::new(
            name,
            vec![drive::gen_pop(derive(seed, 1))],
            true,
        )?)),
        "stream_windowed" => Ok(Box::new(Windowed::new(drive::gen_stream(
            100_000,
            derive(seed, 2),
        ))?)),
        "net_mixed" => Ok(Box::new(NetMixed::new(seed)?)),
        "online_churn" => {
            let inputs = (0..2)
                .map(|w| drive::gen_churn(w, 50_000, derive(seed, 5 + w as u64)))
                .collect();
            Ok(Box::new(Batch::new(name, inputs, false)?))
        }
        other => Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    }
}

/// A verified job: when its span started, and its sample (round and
/// tracing filled in by the loop that ran it).
type Done = (Instant, Sample);

/// Run `one_job` back to back on this thread for `budget`, recording each
/// job and, in a traced slice, the host counters around it. Returns the
/// summed job wall time.
fn closed_loop(
    budget: Duration,
    round: u32,
    traced: bool,
    host: &HostProbe,
    rec: &mut Recorder,
    mut one_job: impl FnMut() -> Result<Done, String>,
) -> f64 {
    let t_round = Instant::now();
    let mut busy = 0.0;
    while t_round.elapsed() < budget {
        let before = traced.then(|| host.sample());
        let job = one_job();
        if let Some(before) = before {
            rec.add_host(host.sample(), before, 1);
        }
        match job {
            Ok((start, sample)) => {
                busy += sample.wall_s;
                rec.job(
                    start,
                    Shape::Pipeline,
                    Sample {
                        round,
                        traced,
                        ..sample
                    },
                );
            }
            Err(why) => rec.fail(why),
        }
    }
    busy
}

/// Extra jobs after the reference job, before set-up returns, so caches,
/// the allocator's arenas and lazy statics are warm when timing starts.
const WARMUP_JOBS: usize = 2;

/// Fully verify one batch job's output and derive the input's facts.
/// `expect_clean`: the workload ends in a CLC, so nothing may be left.
fn batch_facts(
    label: String,
    input: &BatchInput,
    expect_clean: bool,
) -> Result<InputFacts, String> {
    let mut trace = input.trace.clone();
    let out = drive::batch_job(input, &mut trace).map_err(|e| format!("{label}: {e}"))?;
    let events = drive::n_events(&input.trace) as u64;
    if out.events != events {
        return Err(format!("{label}: {} events in, {} out", events, out.events));
    }
    if !drive::is_monotone(&trace) {
        return Err(format!(
            "{label}: corrected output is not monotone per timeline"
        ));
    }
    let residual = drive::count_violations(&trace, &input.lmin)?;
    if out.final_violations != Some(residual) {
        return Err(format!(
            "{label}: program census {:?} disagrees with the benchmark's {residual}",
            out.final_violations
        ));
    }
    if expect_clean && residual != 0 {
        return Err(format!("{label}: {residual} violations left after the CLC"));
    }
    if residual > out.raw_violations {
        return Err(format!(
            "{label}: {residual} violations after, {} before",
            out.raw_violations
        ));
    }
    Ok(InputFacts {
        label,
        events,
        input_bytes: drive::trace_bytes(&input.trace),
        fingerprint: verify::of_times(drive::timestamps(&trace)),
        raw_violations: out.raw_violations,
        residual_violations: residual,
    })
}

/// `pop_batch` and `online_churn`: in-memory `synchronize` on fresh
/// clones (clones untimed). A job corrects every input of the workload
/// once, back to back: `online_churn`'s two traces cost 25 % apart, and
/// jobs alternating between them would put the median job time in the gap
/// between two clusters.
struct Batch {
    inputs: Vec<BatchInput>,
    facts: Vec<InputFacts>,
    clean: bool,
}

impl Batch {
    fn new(name: &str, inputs: Vec<BatchInput>, clean: bool) -> Result<Batch, String> {
        let label = |i: usize| {
            if inputs.len() == 1 {
                name.to_string()
            } else {
                format!("{name}/{i}")
            }
        };
        let facts = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| batch_facts(label(i), input, clean))
            .collect::<Result<Vec<_>, _>>()?;
        let this = Batch {
            inputs,
            facts,
            clean,
        };
        for _ in 0..WARMUP_JOBS {
            this.one_job()?;
        }
        Ok(this)
    }

    /// Clone, return free memory to the kernel (see
    /// `host::release_free_memory`), time the calls, verify. `Err` is a
    /// failed job.
    fn one_job(&self) -> Result<Done, String> {
        let mut traces: Vec<drive::Trace> = self.inputs.iter().map(|i| i.trace.clone()).collect();
        host::release_free_memory();
        let start = Instant::now();
        let outs: Vec<_> = self
            .inputs
            .iter()
            .zip(&mut traces)
            .map(|(i, t)| drive::batch_job(i, t))
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        let mut job = JobOut {
            final_violations: Some(0),
            ..JobOut::default()
        };
        for ((out, trace), facts) in outs.into_iter().zip(&traces).zip(&self.facts) {
            let out = out.map_err(|e| format!("{}: {e}", facts.label))?;
            if out.events != facts.events {
                return Err(format!(
                    "{}: event count {} != {}",
                    facts.label, out.events, facts.events
                ));
            }
            if self.clean && out.final_violations != Some(0) {
                return Err(format!(
                    "{}: violations after the CLC: {:?}",
                    facts.label, out.final_violations
                ));
            }
            if out.final_violations.is_none_or(|v| v > out.raw_violations) {
                return Err(format!(
                    "{}: more violations after than before",
                    facts.label
                ));
            }
            // Same fingerprint as the fully verified reference output:
            // the job's output is monotone and carries the reference's
            // census.
            if verify::of_times(drive::timestamps(trace)) != facts.fingerprint {
                return Err(format!(
                    "{}: output fingerprint differs from the reference job",
                    facts.label
                ));
            }
            job.events += out.events;
            job.stages.extend(out.stages);
            job.jumps += out.jumps;
            job.events_moved += out.events_moved;
            job.peak_column_bytes = job.peak_column_bytes.max(out.peak_column_bytes);
            job.raw_violations += out.raw_violations;
            job.final_violations = job
                .final_violations
                .zip(out.final_violations)
                .map(|(a, b)| a + b);
        }
        let sample = Sample {
            wall_s,
            input_bytes: self.facts.iter().map(|f| f.input_bytes).sum(),
            out: job,
            ..Sample::default()
        };
        Ok((start, sample))
    }
}

impl Workload for Batch {
    fn facts(&self) -> &[InputFacts] {
        &self.facts
    }

    fn round(
        &mut self,
        budget: Duration,
        round: u32,
        traced: bool,
        host: &HostProbe,
        rec: &mut Recorder,
    ) -> f64 {
        closed_loop(budget, round, traced, host, rec, || self.one_job())
    }

    fn probe_layers(&mut self, reps: usize, _rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let input = &self.inputs[0];
        drive::probe_tracefmt(input, reps, &mut out);
        if self.clean {
            drive::probe_clocksync(input, reps, &mut out);
        }
        drive::probe_onlinesync(input, reps, &mut out);
        out
    }
}

/// `stream_windowed`: the chunked `DTC3` stream through the incremental
/// engine.
struct Windowed {
    input: StreamInput,
    facts: Vec<InputFacts>,
    /// Fingerprint of the reference job's output frames.
    frames_fp: u64,
}

impl Windowed {
    fn new(input: StreamInput) -> Result<Windowed, String> {
        let label = "stream_windowed".to_string();
        let (frames, out) = drive::windowed_job(&input)?;
        let decoded = drive::decode_stream(&frames)?;
        // The batch pipeline on the same trace is the oracle: same checks
        // as every batch input, and the decoded frames must equal it
        // timestamp for timestamp.
        let mut facts = batch_facts(label.clone(), &input.batch, true)?;
        if out.events != facts.events || drive::n_events(&decoded) as u64 != facts.events {
            return Err(format!(
                "{label}: event count not preserved through the frames"
            ));
        }
        if !drive::is_monotone(&decoded) {
            return Err(format!(
                "{label}: decoded frames are not monotone per timeline"
            ));
        }
        if verify::of_times(drive::timestamps(&decoded)) != facts.fingerprint {
            return Err(format!(
                "{label}: decoded frames differ from batch synchronize"
            ));
        }
        if drive::count_violations(&decoded, &input.batch.lmin)? != 0 {
            return Err(format!("{label}: violations left in the decoded frames"));
        }
        facts.input_bytes = input.chunks.iter().map(|c| c.len() as u64).sum();
        let this = Windowed {
            frames_fp: verify::of_chunks(&frames),
            input,
            facts: vec![facts],
        };
        for _ in 0..WARMUP_JOBS {
            this.one_job()?;
        }
        Ok(this)
    }

    fn one_job(&self) -> Result<Done, String> {
        let facts = &self.facts[0];
        host::release_free_memory();
        let start = Instant::now();
        let res = drive::windowed_job(&self.input);
        let wall_s = start.elapsed().as_secs_f64();
        let (frames, out) = res.map_err(|e| format!("{}: {e}", facts.label))?;
        if out.events != facts.events {
            return Err(format!(
                "{}: event count {} != {}",
                facts.label, out.events, facts.events
            ));
        }
        if verify::of_chunks(&frames) != self.frames_fp {
            return Err(format!(
                "{}: output frames differ from the reference job",
                facts.label
            ));
        }
        let sample = Sample {
            wall_s,
            input_bytes: facts.input_bytes,
            output_bytes: frames.iter().map(|f| f.len() as u64).sum(),
            out,
            ..Sample::default()
        };
        Ok((start, sample))
    }
}

impl Workload for Windowed {
    fn facts(&self) -> &[InputFacts] {
        &self.facts
    }

    fn round(
        &mut self,
        budget: Duration,
        round: u32,
        traced: bool,
        host: &HostProbe,
        rec: &mut Recorder,
    ) -> f64 {
        closed_loop(budget, round, traced, host, rec, || self.one_job())
    }

    fn probe_layers(&mut self, reps: usize, _rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let batch = &self.input.batch;
        drive::probe_codec(&batch.trace, reps, &mut out);
        drive::probe_tracefmt(batch, reps, &mut out);
        drive::probe_clocksync(batch, reps, &mut out);
        out
    }
}

/// Concurrent closed-loop clients of `net_mixed` (= `nproc` here).
const NET_CLIENTS: usize = 2;
/// Messages of the small and the large job class (×2 = events).
const NET_MSGS: [usize; 2] = [800, 20_000];
/// Jobs per schedule block and large jobs among them: an exact 80 / 20
/// mix in every block of ten, at seeded positions.
const BLOCK: usize = 10;
const LARGE_PER_BLOCK: usize = 2;
const SCHEDULE_BLOCKS: usize = 64;
/// In-process twin jobs of the traced run.
const INPROC_JOBS: usize = 100;

/// One client's connection, cursor and job-class schedule.
struct NetClient {
    conn: drive::SyncClient,
    schedule: Vec<u8>,
    cursor: usize,
}

/// `net_mixed`: two `SyncClient` connections to one loopback `NetServer`,
/// each sending its next job when the previous one returns.
struct NetMixed {
    server: Option<drive::NetServer>,
    classes: Vec<NetInput>,
    facts: Vec<InputFacts>,
    /// Fingerprint of each class's reference reply stream.
    stream_fps: Vec<u64>,
    clients: Vec<NetClient>,
}

/// A seeded job-class schedule: blocks of [`BLOCK`] jobs with exactly
/// [`LARGE_PER_BLOCK`] large ones each, so every seed and every window of
/// the run sees the same 80 / 20 mix and only the positions differ.
fn schedule(seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SCHEDULE_BLOCKS * BLOCK);
    for b in 0..SCHEDULE_BLOCKS {
        let mut block = [0u8; BLOCK];
        let mut placed = 0;
        let mut k = 0u64;
        while placed < LARGE_PER_BLOCK {
            let pos = (derive(seed, (b as u64) << 8 | k) % BLOCK as u64) as usize;
            k += 1;
            if block[pos] == 0 {
                block[pos] = 1;
                placed += 1;
            }
        }
        out.extend_from_slice(&block);
    }
    out
}

/// One wire job on `client`, verified against its class reference.
fn net_one_job(
    client: &mut NetClient,
    classes: &[NetInput],
    facts: &[InputFacts],
    stream_fps: &[u64],
) -> Result<Done, String> {
    let class = client.schedule[client.cursor % client.schedule.len()] as usize;
    client.cursor += 1;
    let (input, facts) = (&classes[class], &facts[class]);
    let start = Instant::now();
    let res = drive::net_job(&mut client.conn, input);
    let wall_s = start.elapsed().as_secs_f64();
    let (stream, out) = res.map_err(|e| format!("{}: {e}", facts.label))?;
    if out.events != facts.events {
        return Err(format!(
            "{}: event count {} != {}",
            facts.label, out.events, facts.events
        ));
    }
    if out.final_violations != Some(0) {
        return Err(format!(
            "{}: violations after the CLC: {:?}",
            facts.label, out.final_violations
        ));
    }
    if verify::of_chunks(&stream) != stream_fps[class] {
        return Err(format!(
            "{}: reply stream differs from the reference job",
            facts.label
        ));
    }
    let sample = Sample {
        wall_s,
        input_bytes: facts.input_bytes,
        output_bytes: stream.iter().map(|c| c.len() as u64).sum(),
        out,
        ..Sample::default()
    };
    Ok((start, sample))
}

impl NetMixed {
    fn new(seed: u64) -> Result<NetMixed, String> {
        let classes: Vec<NetInput> = NET_MSGS
            .iter()
            .enumerate()
            .map(|(i, &m)| drive::gen_net(m, derive(seed, 3 + i as u64)))
            .collect();
        let server = drive::net_server_start()?;
        let mut clients = (0..NET_CLIENTS)
            .map(|c| {
                Ok(NetClient {
                    conn: drive::net_connect(&server)?,
                    schedule: schedule(derive(seed, 16 + c as u64)),
                    cursor: 0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Reference job per class, over the wire, checked against the
        // in-memory pipeline on the same trace.
        let mut facts = Vec::new();
        let mut stream_fps = Vec::new();
        for (input, class) in classes.iter().zip(["small", "large"]) {
            let label = format!("net_mixed/{class}");
            let mut f = batch_facts(label.clone(), &input.batch, true)?;
            let (stream, out) = drive::net_job(&mut clients[0].conn, input)?;
            let decoded = drive::decode_stream(&stream)?;
            if out.events != f.events || out.final_violations != Some(0) {
                return Err(format!(
                    "{label}: wire summary disagrees with the in-memory job"
                ));
            }
            if verify::of_times(drive::timestamps(&decoded)) != f.fingerprint {
                return Err(format!(
                    "{label}: reply stream differs from in-memory synchronize"
                ));
            }
            f.input_bytes = input.bytes.len() as u64;
            facts.push(f);
            stream_fps.push(verify::of_chunks(&stream));
        }
        let mut this = NetMixed {
            server: Some(server),
            classes,
            facts,
            stream_fps,
            clients,
        };
        for client in &mut this.clients {
            for _ in 0..BLOCK {
                net_one_job(client, &this.classes, &this.facts, &this.stream_fps)?;
            }
            client.cursor = 0;
        }
        Ok(this)
    }
}

impl Workload for NetMixed {
    fn facts(&self) -> &[InputFacts] {
        &self.facts
    }

    fn round(
        &mut self,
        budget: Duration,
        round: u32,
        traced: bool,
        host: &HostProbe,
        rec: &mut Recorder,
    ) -> f64 {
        // Process-wide counters cannot be split between concurrent
        // clients, so the host delta covers the round, not each job.
        let before = traced.then(|| host.sample());
        let t_round = Instant::now();
        let (classes, facts, fps) = (&self.classes, &self.facts, &self.stream_fps);
        let lanes: Vec<Recorder> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let mut lane = rec.lane();
                    scope.spawn(move || {
                        while t_round.elapsed() < budget {
                            match net_one_job(client, classes, facts, fps) {
                                Ok((start, sample)) => {
                                    let sample = Sample {
                                        round,
                                        traced,
                                        ..sample
                                    };
                                    lane.job(start, Shape::Net, sample);
                                }
                                Err(why) => lane.fail(why),
                            }
                        }
                        lane
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = t_round.elapsed().as_secs_f64();
        let jobs: u64 = lanes.iter().map(|l| l.attempted).sum();
        for lane in lanes {
            rec.merge(lane);
        }
        if let Some(before) = before {
            rec.add_host(host.sample(), before, jobs);
        }
        wall
    }

    fn probe_layers(&mut self, reps: usize, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        // The in-process twin: the same job mix through SyncService
        // submit → wait, one submitter. Its spans give the service's own
        // overhead and the stage table the wire does not carry.
        let service = drive::service_start();
        let schedule = &self.clients[0].schedule;
        for k in 0..INPROC_JOBS {
            let class = schedule[k % schedule.len()] as usize;
            let (input, facts) = (&self.classes[class], &self.facts[class]);
            match drive::service_job(&service, input) {
                Ok((_, _, out))
                    if out.events != facts.events || out.final_violations != Some(0) =>
                {
                    rec.fail(format!(
                        "{}: in-process twin failed verification",
                        facts.label
                    ));
                }
                Ok((start, wall_s, out)) => rec.job(
                    start,
                    Shape::Inproc,
                    Sample {
                        traced: true,
                        wall_s,
                        input_bytes: facts.input_bytes,
                        out,
                        ..Sample::default()
                    },
                ),
                Err(e) => rec.fail(format!("{}: in-process twin: {e}", facts.label)),
            }
        }
        drive::service_stop(service);

        let mut out = Vec::new();
        // Byte- and pipeline-bound layers on the large class, framing and
        // admission on the small one that sets `job_s_p50`.
        let large = &self.classes[1];
        drive::probe_codec(&large.batch.trace, reps, &mut out);
        drive::probe_tracefmt(&large.batch, reps, &mut out);
        drive::probe_clocksync(&large.batch, reps, &mut out);
        drive::probe_wire(&self.classes[0], reps, &mut out);
        out
    }

    fn finish(mut self: Box<Self>) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            drive::net_server_stop(server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_an_exact_mix_in_every_block() {
        let s = schedule(7);
        assert_eq!(s.len(), SCHEDULE_BLOCKS * BLOCK);
        for block in s.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|&&c| c == 1).count(), LARGE_PER_BLOCK);
        }
        assert_eq!(s, schedule(7));
        assert_ne!(s, schedule(8));
    }

    /// Two set-ups with one seed agree on every fact (events, input
    /// bytes, fingerprint, raw and residual violations); another seed
    /// gives other inputs.
    #[test]
    fn setup_is_deterministic_in_the_seed() {
        for name in NAMES {
            let facts = |seed| {
                let w = setup(name, seed).expect("set-up succeeds");
                let f = w.facts().to_vec();
                w.finish();
                f
            };
            let a = facts(11);
            assert_eq!(a, facts(11), "{name}: same seed, same inputs");
            let b = facts(12);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_ne!(
                    x.fingerprint, y.fingerprint,
                    "{name}: another seed, another input"
                );
            }
        }
    }
}
