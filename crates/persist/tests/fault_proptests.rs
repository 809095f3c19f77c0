//! Property tests for the WAL recovery path under injected disk faults.
//!
//! Two invariants, regardless of the fault schedule:
//!
//! * recovery never panics — torn writes, failed fsyncs, and arbitrary
//!   post-crash byte corruption all reduce to "some valid prefix survives";
//! * whatever survives is a strictly zxid-ordered prefix of what was
//!   appended, never invented data.

use std::fs;
use std::path::PathBuf;

use persist::{FaultInjector, Wal, WalConfig, WriteFault};
use proptest::prelude::*;
use zab::{Txn, Zxid};

/// One scheduled fault decision per record write (syncs fail when the
/// schedule says so, in order).
#[derive(Debug, Clone)]
enum FaultOp {
    Clean,
    Torn(usize),
    Fail,
}

struct Schedule {
    writes: Vec<FaultOp>,
    sync_failures: Vec<bool>,
    write_index: usize,
    sync_index: usize,
}

impl FaultInjector for Schedule {
    fn on_write(&mut self, frame_len: usize) -> WriteFault {
        let op = self.writes.get(self.write_index).cloned().unwrap_or(FaultOp::Clean);
        self.write_index += 1;
        match op {
            FaultOp::Clean => WriteFault::Clean,
            FaultOp::Torn(keep) => WriteFault::Torn(keep % (frame_len + 1)),
            FaultOp::Fail => WriteFault::Fail,
        }
    }

    fn fail_sync(&mut self) -> bool {
        let fail = self.sync_failures.get(self.sync_index).copied().unwrap_or(false);
        self.sync_index += 1;
        fail
    }
}

fn tmp_dir(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("persist-faultprop-{}-{name}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fault_op() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        5 => Just(FaultOp::Clean),
        1 => (0usize..64).prop_map(FaultOp::Torn),
        1 => Just(FaultOp::Fail),
    ]
}

/// Asserts the recovered transactions are strictly ordered and drawn from
/// the appended sequence (by zxid *and* payload).
fn assert_valid_prefix(recovered: &[Txn], appended: &[Txn]) {
    let mut prev = Zxid::ZERO;
    for txn in recovered {
        assert!(txn.zxid > prev, "recovered log not strictly ordered");
        prev = txn.zxid;
        let original = appended
            .iter()
            .find(|t| t.zxid == txn.zxid)
            .unwrap_or_else(|| panic!("recovered {} was never appended", txn.zxid));
        assert_eq!(original.payload, txn.payload, "payload mutated across recovery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Appending under an arbitrary fault schedule never panics, and a
    /// fault-free reopen recovers a strictly ordered subset of the appends.
    #[test]
    fn fault_schedules_never_panic_recovery(
        case in 0u64..u64::MAX,
        ops in proptest::collection::vec(fault_op(), 0..24),
        syncs in proptest::collection::vec(any::<bool>(), 0..8),
        payload_len in 0usize..128,
    ) {
        let dir = tmp_dir("schedule", case);
        let appended: Vec<Txn> = (1..=16u32)
            .map(|i| {
                Txn::new(
                    Zxid { epoch: 1 + i / 9, counter: 1 + (i - 1) % 8 },
                    vec![i as u8; payload_len],
                )
            })
            .collect();
        {
            let schedule = Schedule {
                writes: ops,
                sync_failures: syncs,
                write_index: 0,
                sync_index: 0,
            };
            let config = WalConfig { fsync_every: 3, segment_max_bytes: 256 };
            let (mut wal, _) = Wal::open_with_faults(&dir, config, Box::new(schedule)).unwrap();
            let mut poisoned = false;
            for txn in &appended {
                if wal.append_txn(txn).is_err() {
                    // A real driver treats the log as poisoned; stop writing.
                    poisoned = true;
                    break;
                }
            }
            if !poisoned {
                let _ = wal.sync();
            }
        }
        let (_, recovery) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_valid_prefix(&recovery.txns, &appended);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary post-crash byte corruption of segment files never panics
    /// recovery, and the survivors are still an untampered subset.
    #[test]
    fn post_crash_corruption_never_panics_recovery(
        case in 0u64..u64::MAX,
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        truncate_tail in 0u16..512,
    ) {
        let dir = tmp_dir("corrupt", case);
        let appended: Vec<Txn> = (1..=12u32)
            .map(|i| Txn::new(Zxid { epoch: 1, counter: i }, vec![i as u8; 40]))
            .collect();
        {
            let config = WalConfig { segment_max_bytes: 192, ..WalConfig::default() };
            let (mut wal, _) = Wal::open(&dir, config).unwrap();
            for txn in &appended {
                wal.append_txn(txn).unwrap();
            }
            wal.append_commit(appended.last().unwrap().zxid).unwrap();
            wal.sync().unwrap();
        }
        // Flip bits at arbitrary offsets across the segment files, then chop
        // the lexicographically last one (the active segment) short.
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        paths.sort();
        for (index, (offset, mask)) in flips.iter().enumerate() {
            let path = &paths[index % paths.len()];
            let mut bytes = fs::read(path).unwrap();
            if bytes.is_empty() {
                continue;
            }
            let at = usize::from(*offset) % bytes.len();
            bytes[at] ^= mask | 1;
            fs::write(path, &bytes).unwrap();
        }
        if let Some(path) = paths.last() {
            let bytes = fs::read(path).unwrap();
            let keep = bytes.len().saturating_sub(usize::from(truncate_tail));
            fs::write(path, &bytes[..keep]).unwrap();
        }
        let (mut wal, recovery) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_valid_prefix(&recovery.txns, &appended);
        prop_assert!(recovery.committed <= recovery.txns.last().map_or(Zxid::ZERO, |t| t.zxid));
        // The log keeps working after whatever recovery salvaged.
        let tip = recovery.txns.last().map_or(Zxid::ZERO, |t| t.zxid);
        wal.append_txn(&Txn::new(tip.next(), &b"after recovery"[..])).unwrap();
        wal.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
