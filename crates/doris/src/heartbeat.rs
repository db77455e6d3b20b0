//! Node liveness tracking (§3.2.1: the coordinator identifies active nodes
//! via heartbeat).

use parking_lot::Mutex;
use std::sync::Arc;

/// The set of compute nodes that stopped answering the coordinator.
/// Cloning shares the underlying state: the coordinator and every node
/// thread hold handles to the same monitor, so a node that crashes
/// mid-fragment marks itself down and the coordinator's recovery loop sees
/// it immediately.
///
/// Node slots are indexed by *stable* node id (the rank a node had in the
/// original, full-size cluster), so liveness survives world shrinks.
///
/// Liveness reads no clock: only [`mark_down`](Self::mark_down) changes it,
/// and a downed node stays down, so a recovery decision never depends on
/// how fast the host ran the attempt before it.
#[derive(Clone)]
pub struct HeartbeatMonitor {
    down: Arc<Mutex<Vec<bool>>>,
}

impl HeartbeatMonitor {
    /// Monitor for `nodes` compute nodes, all alive.
    pub fn new(nodes: usize) -> Self {
        Self {
            down: Arc::new(Mutex::new(vec![false; nodes])),
        }
    }

    /// Mark a node as permanently down (crash injection, or a node
    /// self-reporting a fatal fault).
    pub fn mark_down(&self, node: usize) {
        if let Some(slot) = self.down.lock().get_mut(node) {
            *slot = true;
        }
    }

    /// True if `node` exists and was never marked down.
    pub fn is_alive(&self, node: usize) -> bool {
        self.down.lock().get(node) == Some(&false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_alive_initially() {
        let m = HeartbeatMonitor::new(3);
        assert!((0..3).all(|i| m.is_alive(i)));
    }

    #[test]
    fn marked_down_node_detected() {
        let m = HeartbeatMonitor::new(3);
        m.mark_down(1);
        assert!(!m.is_alive(1));
        assert!(m.is_alive(0) && m.is_alive(2));
        m.mark_down(1);
        assert!(!m.is_alive(1), "a second mark_down keeps it down");
    }

    #[test]
    fn out_of_range_is_dead() {
        let m = HeartbeatMonitor::new(2);
        assert!(!m.is_alive(9));
        m.mark_down(9);
        assert!(m.is_alive(0) && m.is_alive(1));
    }

    #[test]
    fn clones_share_state() {
        let m = HeartbeatMonitor::new(2);
        let m2 = m.clone();
        m2.mark_down(0);
        assert!(!m.is_alive(0));
        assert!(m.is_alive(1));
    }
}
