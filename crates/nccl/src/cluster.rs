//! Communicator construction and point-to-point transport.

use crate::{NcclError, Result};
use sirius_columnar::{Array, StringArray, Table};
use sirius_hw::{FaultAction, FaultInjector, FaultSite, Link, LinkSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Receive timeout: generous enough for debug-mode tests, small enough to
/// turn deadlocks into diagnosable errors.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Granularity at which a blocked `recv` re-checks the cancel token. A dead
/// peer never sends, so without this a surviving rank would sit out the full
/// receive timeout before noticing the query was aborted.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// Cluster-wide cancellation flag. Cloning shares the flag; the coordinator
/// cancels it when any fragment fails, and every blocked collective wakes
/// with [`NcclError::Cancelled`] within one poll interval.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation of all in-flight collectives sharing this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Re-arm the token for the next dispatch attempt.
    pub fn reset(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

pub(crate) struct Message {
    pub src: usize,
    pub seq: u64,
    pub table: Table,
}

/// `(src, dst)` stable-id pair → (bytes, messages).
type TrafficMap = HashMap<(usize, usize), (u64, u64)>;

/// Per-link traffic counters, keyed by `(src, dst)` *stable* node ids.
/// Shared by every communicator in a cluster; cloning shares the counters.
/// The exchange layer has no absolute clock (wire time is charged to each
/// node's ledger), so the link telemetry is cumulative bytes/messages
/// rather than timestamped events.
#[derive(Clone, Default)]
pub struct LinkTraffic {
    inner: Arc<parking_lot::Mutex<TrafficMap>>,
}

impl LinkTraffic {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&self, src: usize, dst: usize, bytes: u64) {
        let mut m = self.inner.lock();
        let e = m.entry((src, dst)).or_insert((0, 0));
        e.0 += bytes;
        e.1 += 1;
    }

    /// Snapshot of `((src, dst), bytes, messages)` per link, sorted by pair.
    pub fn snapshot(&self) -> Vec<((usize, usize), u64, u64)> {
        let mut out: Vec<_> = self
            .inner
            .lock()
            .iter()
            .map(|(&k, &(b, n))| (k, b, n))
            .collect();
        out.sort_by_key(|(k, _, _)| *k);
        out
    }
}

/// A per-rank handle into the cluster. Each rank is owned by one thread.
pub struct Communicator {
    rank: usize,
    world: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Out-of-order messages buffered until requested.
    pending: HashMap<(usize, u64), Table>,
    /// Collective sequence counter (must advance identically on all ranks).
    seq: u64,
    link: Link,
    cancel: CancelToken,
    fault: FaultInjector,
    /// Current rank → stable node id, for fault matching across world
    /// shrinks. Identity unless overridden via `set_fault_injector`.
    ids: Vec<usize>,
    /// Shared per-link traffic counters (stable-id keyed).
    traffic: LinkTraffic,
    /// Dictionaries already shipped per `(stable peer id, dictionary)`
    /// link: the serialized form of an encoded column is its codes plus
    /// the dictionary *once* — later batches reusing the same dictionary
    /// ship codes only. Holding the `Arc` pins the identity so a freed
    /// allocation can never alias a shipped dictionary.
    shipped_dicts: parking_lot::Mutex<HashMap<(usize, usize), Arc<StringArray>>>,
}

/// Factory for a set of connected communicators.
pub struct NcclCluster;

impl NcclCluster {
    /// Create `world` communicators joined by an interconnect of `spec`.
    /// The returned vector is indexed by rank; hand each element to its
    /// node's thread. All communicators share one [`CancelToken`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(world: usize, spec: LinkSpec) -> Vec<Communicator> {
        let link = Link::new(spec);
        let cancel = CancelToken::new();
        let traffic = LinkTraffic::new();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..world).map(|_| channel::<Message>()).unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Communicator {
                rank,
                world,
                senders: senders.clone(),
                receiver,
                pending: HashMap::new(),
                seq: 0,
                link: link.clone(),
                cancel: cancel.clone(),
                fault: FaultInjector::disabled(),
                ids: (0..world).collect(),
                traffic: traffic.clone(),
                shipped_dicts: parking_lot::Mutex::new(HashMap::new()),
            })
            .collect()
    }
}

impl Communicator {
    /// This communicator's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Shared per-link traffic counters, keyed by stable node id pairs.
    pub fn traffic(&self) -> &LinkTraffic {
        &self.traffic
    }

    /// The cancellation token shared by every communicator in this cluster.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Attach a fault injector. `ids` maps current rank → stable node id
    /// (identity for a full-size cluster; the survivor assignment after a
    /// world shrink), so link faults keep targeting the same physical nodes.
    pub fn set_fault_injector(&mut self, fault: FaultInjector, ids: Vec<usize>) {
        debug_assert_eq!(ids.len(), self.world);
        self.fault = fault;
        self.ids = ids;
    }

    /// Start collective epoch `epoch`: rebase the sequence counter and drop
    /// any traffic left over from an aborted attempt. The coordinator calls
    /// this on every rank *between* dispatch attempts (all node threads
    /// joined), which is what makes draining the channel safe.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.seq = epoch << 32;
        self.pending.clear();
        while self.receiver.try_recv().is_ok() {}
    }

    /// Advance and return the collective sequence number.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Send `table` to `peer` under sequence `seq`; returns simulated wire
    /// time (zero for self-sends — device-local data never hits the wire).
    pub(crate) fn send(&self, peer: usize, seq: u64, table: Table) -> Result<Duration> {
        if peer >= self.world {
            return Err(NcclError::InvalidRank(peer));
        }
        let mut injected_delay = Duration::ZERO;
        if peer != self.rank {
            let site = FaultSite::ExchangeSend {
                src: self.ids[self.rank],
                dst: self.ids[peer],
            };
            match self.fault.fire(site) {
                Some(FaultAction::Fail) => {
                    return Err(NcclError::LinkFault {
                        src: self.ids[self.rank],
                        dst: self.ids[peer],
                    });
                }
                Some(FaultAction::Delay(d)) => injected_delay = d,
                None => {}
            }
        }
        // Serialized size: what actually ships. `byte_size()` of an encoded
        // column is already its codes; add each dictionary's payload only
        // the first time it crosses this link.
        let mut bytes = table.byte_size() as u64;
        if peer != self.rank {
            let mut shipped = self.shipped_dicts.lock();
            for c in table.columns() {
                if let Array::Dict(d) = c {
                    shipped
                        .entry((self.ids[peer], d.dict_ptr()))
                        .or_insert_with(|| {
                            bytes += d.dict_byte_size() as u64;
                            Arc::clone(d.values())
                        });
                }
            }
        }
        self.senders[peer]
            .send(Message {
                src: self.rank,
                seq,
                table,
            })
            .map_err(|_| NcclError::Disconnected { peer })?;
        Ok(if peer == self.rank {
            Duration::ZERO
        } else {
            self.traffic
                .note(self.ids[self.rank], self.ids[peer], bytes);
            self.link.transfer(bytes) + injected_delay
        })
    }

    /// Receive the message from `peer` with sequence `seq`, buffering any
    /// other traffic that arrives first. Wakes with [`NcclError::Cancelled`]
    /// if the cluster's cancel token trips while blocked.
    // A receive blocked on a peer thread that never sends needs a real
    // deadline; it decides only whether the wait ends, not any cost.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn recv(&mut self, peer: usize, seq: u64) -> Result<Table> {
        if let Some(t) = self.pending.remove(&(peer, seq)) {
            return Ok(t);
        }
        let deadline = std::time::Instant::now() + RECV_TIMEOUT;
        loop {
            if self.cancel.is_cancelled() {
                return Err(NcclError::Cancelled);
            }
            let msg = match self.receiver.recv_timeout(CANCEL_POLL) {
                Ok(m) => m,
                Err(_) if std::time::Instant::now() >= deadline => {
                    return Err(NcclError::Timeout { peer, seq });
                }
                Err(_) => continue,
            };
            if msg.src == peer && msg.seq == seq {
                return Ok(msg.table);
            }
            self.pending.insert((msg.src, msg.seq), msg.table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};
    use sirius_hw::catalog;

    fn t(v: i64) -> Table {
        Table::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Array::from_i64([v])],
        )
    }

    #[test]
    fn point_to_point() {
        let mut comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = std::thread::spawn(move || {
            c1.send(0, 1, t(42)).unwrap();
        });
        let got = c0.recv(1, 1).unwrap();
        assert_eq!(got.column(0).i64_value(0), Some(42));
        h.join().unwrap();
    }

    #[test]
    fn out_of_order_buffering() {
        let mut comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = std::thread::spawn(move || {
            c1.send(0, 2, t(2)).unwrap();
            c1.send(0, 1, t(1)).unwrap();
        });
        h.join().unwrap();
        // Ask for seq 1 first even though seq 2 arrived first.
        assert_eq!(c0.recv(1, 1).unwrap().column(0).i64_value(0), Some(1));
        assert_eq!(c0.recv(1, 2).unwrap().column(0).i64_value(0), Some(2));
    }

    #[test]
    fn self_send_is_free() {
        let mut comms = NcclCluster::new(1, catalog::infiniband_4xndr());
        let mut c = comms.pop().unwrap();
        let d = c.send(0, 1, t(7)).unwrap();
        assert_eq!(d, Duration::ZERO);
        assert_eq!(c.recv(0, 1).unwrap().column(0).i64_value(0), Some(7));
    }

    #[test]
    fn invalid_rank() {
        let mut comms = NcclCluster::new(1, catalog::infiniband_4xndr());
        let c = comms.pop().unwrap();
        assert!(matches!(c.send(5, 1, t(0)), Err(NcclError::InvalidRank(5))));
    }

    #[test]
    fn cancel_wakes_blocked_recv() {
        let comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let token = comms[0].cancel_token();
        let mut c0 = comms.into_iter().next().unwrap();
        let h = std::thread::spawn(move || c0.recv(1, 1));
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
        let got = h.join().unwrap();
        assert_eq!(got.unwrap_err(), NcclError::Cancelled);
    }

    #[test]
    fn injected_drop_surfaces_as_link_fault() {
        use sirius_hw::{FaultInjector, FaultPlan};
        let mut comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let inj = FaultInjector::new(FaultPlan::new(0).drop_link(0, 1, 0, 1));
        comms[0].set_fault_injector(inj, vec![0, 1]);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        assert_eq!(
            c0.send(1, 1, t(9)).unwrap_err(),
            NcclError::LinkFault { src: 0, dst: 1 }
        );
        // Budget spent: the retry goes through.
        let h = std::thread::spawn(move || c0.send(1, 2, t(9)).unwrap());
        let mut c1 = c1;
        assert_eq!(c1.recv(0, 2).unwrap().column(0).i64_value(0), Some(9));
        h.join().unwrap();
    }

    #[test]
    fn injected_delay_inflates_wire_time() {
        use sirius_hw::{FaultInjector, FaultPlan};
        let mut comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let extra = Duration::from_millis(25);
        let inj = FaultInjector::new(FaultPlan::new(0).delay_link(0, 1, extra, 0, 1));
        comms[0].set_fault_injector(inj, vec![0, 1]);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let slow = c0.send(1, 1, t(1)).unwrap();
        let fast = c0.send(1, 2, t(1)).unwrap();
        assert!(slow >= fast + extra, "slow {slow:?} vs fast {fast:?}");
        drop(c1);
    }

    #[test]
    fn traffic_counters_track_per_link_bytes() {
        let mut comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        // Stable ids differ from ranks (post-shrink survivor assignment).
        comms[0].set_fault_injector(FaultInjector::disabled(), vec![4, 7]);
        comms[1].set_fault_injector(FaultInjector::disabled(), vec![4, 7]);
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let payload = t(1);
        let bytes = payload.byte_size() as u64;
        let h = std::thread::spawn(move || {
            c1.send(0, 1, t(1)).unwrap();
            c1.send(0, 2, t(1)).unwrap();
            // Self-send stays off the wire and off the counters.
            c1.send(1, 3, t(1)).unwrap();
            c1 // keep the rank-1 channel open for c0's send below
        });
        c0.recv(1, 1).unwrap();
        c0.recv(1, 2).unwrap();
        let c1 = h.join().unwrap();
        c0.send(1, 4, payload).unwrap();
        drop(c1);
        let traffic = c0.traffic();
        assert_eq!(
            traffic.snapshot(),
            vec![((4, 7), bytes, 1), ((7, 4), 2 * bytes, 2)]
        );
    }

    #[test]
    fn dictionary_ships_once_per_link() {
        let mut comms = NcclCluster::new(3, catalog::infiniband_4xndr());
        let c2 = comms.pop().unwrap();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let enc = Table::new(
            Schema::new(vec![Field::new("s", DataType::Utf8)]),
            vec![Array::from_strs(["alpha", "beta", "alpha"]).dict_encode()],
        );
        let codes = enc.byte_size() as u64;
        let dict = enc.column(0).dict_byte_size() as u64;
        assert!(dict > 0);
        let (r1, r2) = (
            std::thread::spawn({
                let mut c1 = c1;
                move || {
                    c1.recv(0, 1).unwrap();
                    c1.recv(0, 2).unwrap();
                }
            }),
            std::thread::spawn({
                let mut c2 = c2;
                move || {
                    c2.recv(0, 3).unwrap();
                }
            }),
        );
        // Two batches to rank 1 (same dictionary), one to rank 2.
        c0.send(1, 1, enc.clone()).unwrap();
        c0.send(1, 2, enc.clone()).unwrap();
        c0.send(2, 3, enc.clone()).unwrap();
        r1.join().unwrap();
        r2.join().unwrap();
        assert_eq!(
            c0.traffic().snapshot(),
            vec![((0, 1), codes + dict + codes, 2), ((0, 2), codes + dict, 1),],
            "dictionary bytes count once per link, codes per batch"
        );
    }

    #[test]
    fn begin_epoch_discards_stale_traffic() {
        let mut comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        // Leftovers from an aborted attempt: one buffered, one in-channel.
        c1.send(0, 3, t(3)).unwrap();
        c1.send(0, 4, t(4)).unwrap();
        assert_eq!(c0.recv(1, 4).unwrap().num_rows(), 1); // buffers seq 3
        c0.begin_epoch(1);
        c1.send(0, (1 << 32) + 1, t(7)).unwrap();
        assert_eq!(
            c0.recv(1, (1 << 32) + 1).unwrap().column(0).i64_value(0),
            Some(7)
        );
    }
}
