//! The multi-node tier: a consistent-hash job router over N in-process
//! [`SyncService`] nodes, with background work stealing.
//!
//! **Placement.** Each node gets [`RouterConfig::replicas`] virtual
//! points on an FNV-1a hash ring; a job key walks clockwise to the first
//! point. Consistent hashing keeps placement stable when the node count
//! changes and spreads keys evenly without coordination.
//!
//! **Work stealing.** Placement is oblivious to load, so a hot key range
//! can pile jobs onto one node while others idle. A balancer thread
//! compares queue depths every [`RouterConfig::steal_interval`]; when the
//! spread reaches [`RouterConfig::steal_threshold`], it moves half the
//! difference from the deepest queue's *back, lowest class first*
//! ([`Shared::steal`]) to the shallowest node ([`Shared::inject`]),
//! re-charging the admission budget on the recipient. A submitted job's
//! [`JobHandle`] is placement-independent (the handle shares state with
//! the ticket, wherever it runs), so stealing is invisible to submitters.
//!
//! **Bit-identity.** Every node runs the identical [`ServiceConfig`] on
//! one shared [`Runtime`] and the pipeline is deterministic, so a job's
//! corrected output does not depend on which node executes it. The router
//! test pins this.
//!
//! [`Shared::steal`]: crate::service::Shared
//! [`Shared::inject`]: crate::service::Shared

use crate::job::{JobHandle, JobSpec, SubmitError};
use crate::metrics::{Counter, MetricsSnapshot};
use crate::runtime::{RealRuntime, Runtime};
use crate::service::{fail_stolen, ServiceConfig, SyncService};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of in-process service nodes.
    pub nodes: usize,
    /// Virtual points per node on the hash ring.
    pub replicas: usize,
    /// Balancer wake-up period.
    pub steal_interval: Duration,
    /// Minimum queue-depth spread (deepest − shallowest) that triggers a
    /// rebalance.
    pub steal_threshold: usize,
    /// Configuration applied to **every** node — identical configs are
    /// what make placement invisible in the results.
    pub node: ServiceConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            nodes: 2,
            replicas: 64,
            steal_interval: Duration::from_millis(5),
            steal_threshold: 4,
            node: ServiceConfig::default(),
        }
    }
}

/// 64-bit FNV-1a with a murmur-style finalizer: tiny, dependency-free,
/// and uniform enough for ring placement (not cryptographic, and does not
/// need to be). Raw FNV alone is wrong here — similar short keys share
/// their high bits (a trailing byte only diffuses upward through one
/// multiply), which collapses the ring to a few arcs; the finalizer
/// avalanches every input bit across the whole word.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A running multi-node router.
pub struct JobRouter {
    nodes: Vec<SyncService>,
    /// Sorted `(point, node)` ring.
    ring: Vec<(u64, u32)>,
    stop: Arc<AtomicBool>,
    steals: Arc<AtomicU64>,
    balancer: Option<std::thread::JoinHandle<()>>,
}

impl JobRouter {
    /// Start `cfg.nodes` services on one shared production clock and the
    /// balancer thread.
    pub fn start(cfg: RouterConfig) -> JobRouter {
        JobRouter::start_with_runtime(cfg, Arc::new(RealRuntime::new()))
    }

    /// Start on an explicit runtime (the simulation seam; every node
    /// shares it so deadlines and queue waits stay comparable).
    pub fn start_with_runtime(cfg: RouterConfig, runtime: Arc<dyn Runtime>) -> JobRouter {
        let n = cfg.nodes.max(1);
        let nodes: Vec<SyncService> = (0..n)
            .map(|_| SyncService::start_with_runtime(cfg.node.clone(), Arc::clone(&runtime)))
            .collect();
        let mut ring = Vec::with_capacity(n * cfg.replicas.max(1));
        for (i, _) in nodes.iter().enumerate() {
            for r in 0..cfg.replicas.max(1) {
                ring.push((fnv1a64(format!("node-{i}#{r}").as_bytes()), i as u32));
            }
        }
        ring.sort_unstable();
        let stop = Arc::new(AtomicBool::new(false));
        let steals = Arc::new(AtomicU64::new(0));
        let balancer = {
            let shareds: Vec<_> = nodes.iter().map(|s| Arc::clone(s.shared())).collect();
            let stop = Arc::clone(&stop);
            let steals = Arc::clone(&steals);
            let interval = cfg.steal_interval;
            let threshold = cfg.steal_threshold.max(1);
            std::thread::Builder::new()
                .name("syncd-balancer".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(interval);
                        rebalance_once(&shareds, threshold, &steals);
                    }
                })
                .expect("spawn balancer thread")
        };
        JobRouter {
            nodes,
            ring,
            stop,
            steals,
            balancer: Some(balancer),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node a key hashes to (before any stealing).
    pub fn node_for(&self, key: &str) -> usize {
        let h = fnv1a64(key.as_bytes());
        let at = self.ring.partition_point(|&(p, _)| p < h);
        let (_, node) = self.ring[at % self.ring.len()];
        node as usize
    }

    /// Route `spec` by `key` and submit it to the owning node. The
    /// returned handle works wherever the job ends up running.
    pub fn submit_keyed(&self, key: &str, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.nodes[self.node_for(key)].submit(spec)
    }

    /// Current queue depth of every node (diagnostics and tests).
    pub fn queue_lens(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|s| s.shared().queue_len())
            .collect()
    }

    /// Total tickets moved between nodes so far.
    pub fn rebalances(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Metrics snapshot of one node.
    pub fn metrics(&self, node: usize) -> MetricsSnapshot {
        self.nodes[node].metrics()
    }

    /// Stop the balancer, then drain-shutdown every node.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(b) = self.balancer.take() {
            let _ = b.join();
        }
        for node in self.nodes.drain(..) {
            node.shutdown();
        }
    }
}

/// One balancer pass over the nodes' queues.
fn rebalance_once(
    shareds: &[Arc<crate::service::Shared>],
    threshold: usize,
    steals: &AtomicU64,
) {
    if shareds.len() < 2 {
        return;
    }
    let lens: Vec<usize> = shareds.iter().map(|s| s.queue_len()).collect();
    let (max_i, &max) = lens
        .iter()
        .enumerate()
        .max_by_key(|&(_, &l)| l)
        .expect("non-empty");
    let (min_i, &min) = lens
        .iter()
        .enumerate()
        .min_by_key(|&(_, &l)| l)
        .expect("non-empty");
    if max_i == min_i || max - min < threshold {
        return;
    }
    let take = (max - min) / 2;
    for stolen in shareds[max_i].steal(take) {
        let mut entry = Some(stolen);
        // Recipient first, donor as give-back, then anyone — a stolen
        // ticket must land somewhere or fail typed, never vanish.
        let order = std::iter::once(min_i)
            .chain(std::iter::once(max_i))
            .chain(0..shareds.len());
        for i in order {
            match shareds[i].inject(entry.take().expect("ticket present")) {
                Ok(()) => {
                    if i != max_i {
                        steals.fetch_add(1, Ordering::Relaxed);
                        shareds[i].metrics.inc(Counter::RouterSteals);
                    }
                    break;
                }
                Err(e) => entry = Some(*e),
            }
        }
        if let Some(e) = entry {
            fail_stolen(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_nodes() {
        let cfg = RouterConfig {
            nodes: 4,
            node: ServiceConfig {
                executors: 1,
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = JobRouter::start(cfg);
        let mut hit = [false; 4];
        for i in 0..256 {
            let n = router.node_for(&format!("key-{i}"));
            assert_eq!(n, router.node_for(&format!("key-{i}")), "stable placement");
            hit[n] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys should cover 4 nodes: {hit:?}");
        router.shutdown();
    }

    #[test]
    fn fnv_spreads_keys_reasonably() {
        let mut counts = [0usize; 8];
        let cfg = RouterConfig {
            nodes: 8,
            node: ServiceConfig {
                executors: 1,
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = JobRouter::start(cfg);
        for i in 0..4096 {
            counts[router.node_for(&format!("tenant-{i}/job-{}", i * 7))] += 1;
        }
        router.shutdown();
        let (lo, hi) = (512 / 4, 512 * 4);
        for (n, &c) in counts.iter().enumerate() {
            assert!(c > lo && c < hi, "node {n} got {c} of 4096 keys: {counts:?}");
        }
    }
}
