//! One-shot watches on znodes.
//!
//! ZooKeeper clients can register a *watch* when reading a znode (GET, EXISTS)
//! or listing its children (LS). The watch fires exactly once, the next time
//! the watched state changes, and is delivered to the session that registered
//! it. SecureKeeper leaves the watch mechanism untouched (watch notifications
//! carry only the — encrypted — path), but the substrate needs it to be a
//! faithful ZooKeeper stand-in for the example applications (locks, leader
//! election).

use std::collections::{HashMap, HashSet};

/// The kind of state change a watch observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchEventKind {
    /// The znode was created.
    NodeCreated,
    /// The znode was deleted.
    NodeDeleted,
    /// The znode's payload changed.
    NodeDataChanged,
    /// The znode's children changed.
    NodeChildrenChanged,
}

impl WatchEventKind {
    /// ZooKeeper wire value for the event type (carried in
    /// [`jute::records::WatcherEvent::event_type`]).
    pub fn to_wire(self) -> i32 {
        match self {
            WatchEventKind::NodeCreated => 1,
            WatchEventKind::NodeDeleted => 2,
            WatchEventKind::NodeDataChanged => 3,
            WatchEventKind::NodeChildrenChanged => 4,
        }
    }

    /// Parses a ZooKeeper wire event type.
    pub fn from_wire(value: i32) -> Option<Self> {
        Some(match value {
            1 => WatchEventKind::NodeCreated,
            2 => WatchEventKind::NodeDeleted,
            3 => WatchEventKind::NodeDataChanged,
            4 => WatchEventKind::NodeChildrenChanged,
            _ => return None,
        })
    }
}

/// A fired watch notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// The watched path (possibly ciphertext under SecureKeeper).
    pub path: String,
    /// What happened.
    pub kind: WatchEventKind,
    /// Session that registered the watch.
    pub session_id: i64,
    /// zxid of the transaction that fired the watch. Every event of one
    /// committed `multi` carries the same zxid, so clients can recognize
    /// the notifications of one atomic batch.
    pub zxid: i64,
}

/// Registry of pending watches.
#[derive(Debug, Default)]
pub struct WatchManager {
    /// Data watches (set by GET and EXISTS).
    data_watches: HashMap<String, HashSet<i64>>,
    /// Child watches (set by LS).
    child_watches: HashMap<String, HashSet<i64>>,
}

impl WatchManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a data watch on `path` for `session_id`.
    pub fn add_data_watch(&mut self, path: &str, session_id: i64) {
        self.data_watches.entry(path.to_string()).or_default().insert(session_id);
    }

    /// Registers a child watch on `path` for `session_id`.
    pub fn add_child_watch(&mut self, path: &str, session_id: i64) {
        self.child_watches.entry(path.to_string()).or_default().insert(session_id);
    }

    /// Whether no watch is armed. O(1): firing removes a path's entry and
    /// closing a session drops the entries it emptied, so no empty set
    /// lingers.
    pub fn is_empty(&self) -> bool {
        self.data_watches.is_empty() && self.child_watches.is_empty()
    }

    /// Number of pending watches (data + child).
    pub fn pending(&self) -> usize {
        self.data_watches.values().map(HashSet::len).sum::<usize>()
            + self.child_watches.values().map(HashSet::len).sum::<usize>()
    }

    /// Fires data watches on `path` with `kind`, removing them (one-shot).
    /// Events are tagged with the `zxid` of the triggering transaction.
    pub fn trigger_data(&mut self, path: &str, kind: WatchEventKind, zxid: i64) -> Vec<WatchEvent> {
        match self.data_watches.remove(path) {
            Some(sessions) => {
                let mut events: Vec<WatchEvent> = sessions
                    .into_iter()
                    .map(|session_id| WatchEvent { path: path.to_string(), kind, session_id, zxid })
                    .collect();
                events.sort_by_key(|e| e.session_id);
                events
            }
            None => Vec::new(),
        }
    }

    /// Fires child watches on `path`, removing them (one-shot). Events are
    /// tagged with the `zxid` of the triggering transaction.
    pub fn trigger_children(&mut self, path: &str, zxid: i64) -> Vec<WatchEvent> {
        match self.child_watches.remove(path) {
            Some(sessions) => {
                let mut events: Vec<WatchEvent> = sessions
                    .into_iter()
                    .map(|session_id| WatchEvent {
                        path: path.to_string(),
                        kind: WatchEventKind::NodeChildrenChanged,
                        session_id,
                        zxid,
                    })
                    .collect();
                events.sort_by_key(|e| e.session_id);
                events
            }
            None => Vec::new(),
        }
    }

    /// Removes every watch registered by `session_id` (on session close).
    pub fn remove_session(&mut self, session_id: i64) {
        for sessions in self.data_watches.values_mut() {
            sessions.remove(&session_id);
        }
        for sessions in self.child_watches.values_mut() {
            sessions.remove(&session_id);
        }
        self.data_watches.retain(|_, s| !s.is_empty());
        self.child_watches.retain(|_, s| !s.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_watch_fires_once() {
        let mut mgr = WatchManager::new();
        mgr.add_data_watch("/a", 1);
        mgr.add_data_watch("/a", 2);
        let events = mgr.trigger_data("/a", WatchEventKind::NodeDataChanged, 7);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].session_id, 1);
        assert_eq!(events[1].kind, WatchEventKind::NodeDataChanged);
        assert!(events.iter().all(|e| e.zxid == 7), "events carry the txn zxid");
        assert!(mgr.trigger_data("/a", WatchEventKind::NodeDataChanged, 7).is_empty());
        assert_eq!(mgr.pending(), 0);
    }

    #[test]
    fn is_empty_tracks_armed_watches() {
        let mut mgr = WatchManager::new();
        assert!(mgr.is_empty());
        mgr.add_data_watch("/a", 1);
        mgr.add_child_watch("/b", 2);
        assert!(!mgr.is_empty());
        mgr.trigger_data("/a", WatchEventKind::NodeDeleted, 7);
        assert!(!mgr.is_empty());
        mgr.remove_session(2);
        assert!(mgr.is_empty(), "closing the last watcher's session empties it");
        mgr.add_data_watch("/c", 3);
        mgr.trigger_data("/c", WatchEventKind::NodeDataChanged, 8);
        assert!(mgr.is_empty());
    }

    #[test]
    fn child_watch_is_independent_of_data_watch() {
        let mut mgr = WatchManager::new();
        mgr.add_data_watch("/a", 1);
        mgr.add_child_watch("/a", 1);
        assert_eq!(mgr.pending(), 2);
        assert_eq!(mgr.trigger_children("/a", 7).len(), 1);
        assert_eq!(mgr.pending(), 1);
        assert_eq!(mgr.trigger_data("/a", WatchEventKind::NodeDeleted, 7).len(), 1);
    }

    #[test]
    fn unrelated_paths_do_not_fire() {
        let mut mgr = WatchManager::new();
        mgr.add_data_watch("/a", 1);
        assert!(mgr.trigger_data("/b", WatchEventKind::NodeCreated, 7).is_empty());
        assert_eq!(mgr.pending(), 1);
    }

    #[test]
    fn event_kinds_roundtrip_through_the_wire_values() {
        for kind in [
            WatchEventKind::NodeCreated,
            WatchEventKind::NodeDeleted,
            WatchEventKind::NodeDataChanged,
            WatchEventKind::NodeChildrenChanged,
        ] {
            assert_eq!(WatchEventKind::from_wire(kind.to_wire()), Some(kind));
        }
        assert_eq!(WatchEventKind::from_wire(99), None);
    }

    #[test]
    fn remove_session_clears_its_watches() {
        let mut mgr = WatchManager::new();
        mgr.add_data_watch("/a", 1);
        mgr.add_data_watch("/a", 2);
        mgr.add_child_watch("/b", 1);
        mgr.remove_session(1);
        assert_eq!(mgr.pending(), 1);
        assert!(!mgr.is_empty());
        let events = mgr.trigger_data("/a", WatchEventKind::NodeDeleted, 7);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].session_id, 2);
    }
}
