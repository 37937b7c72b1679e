//! Durable serving: a [`DiscoveryService`] whose mutations are appended to
//! an on-disk commitlog *under the same write lock that serializes them*,
//! so log order always equals serialization order (the PR 6 invariant:
//! "equal versions imply identical history" — now across restarts too).
//!
//! Built by [`Pipeline::serve_durable`](crate::Pipeline::serve_durable);
//! recovery is [`Pipeline::open_durable`](crate::Pipeline::open_durable).

use std::io;
use std::sync::Mutex;

use dialite_discovery::DiscoveryService;
use dialite_durable::DurableLake;
use dialite_table::DataLake;

/// The durability handle plus its health. After a failed append the log
/// may have a hole (the lake moved but the records never landed), so
/// further appends are refused until a snapshot re-establishes coverage.
struct LogState {
    lake: DurableLake,
    broken: bool,
}

/// A [`DiscoveryService`] with write-ahead durability: every mutation is
/// appended to the commitlog before the lake write guard is released, and
/// [`DurableService::snapshot`] checkpoints the lake so the next open
/// replays only the tail.
///
/// Queries go straight to the wrapped service
/// ([`DurableService::service`]) — reads never touch the log.
pub struct DurableService {
    service: DiscoveryService,
    /// Locked strictly *inside* the service's lake guard (write guard for
    /// mutations, read guard for snapshots), so the lock order is acyclic
    /// and appends land in serialization order.
    durable: Mutex<LogState>,
}

impl DurableService {
    /// Wrap an already-recovered service + durability handle. The log
    /// must already cover the served lake (which
    /// [`Pipeline::open_durable`](crate::Pipeline::open_durable)
    /// guarantees).
    pub(crate) fn new(service: DiscoveryService, durable: DurableLake) -> DurableService {
        DurableService {
            service,
            durable: Mutex::new(LogState {
                lake: durable,
                broken: false,
            }),
        }
    }

    /// The wrapped serving layer: queries, telemetry, version stamps.
    pub fn service(&self) -> &DiscoveryService {
        &self.service
    }

    /// Apply one lake mutation, append its events to the commitlog under
    /// the write lock, and return the post-mutation lake version.
    ///
    /// If a previous append failed, the mutation is **refused** (the lake
    /// is not touched) until [`DurableService::snapshot`] succeeds —
    /// otherwise the log would replay into a state missing the lost
    /// records.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut DataLake) -> R) -> io::Result<u64> {
        let mut outcome: io::Result<()> = Ok(());
        let version = self.service.mutate(|lake| {
            let mut log = self.durable.lock().expect("durable lock");
            if log.broken {
                outcome = Err(io::Error::other(
                    "commitlog has a hole after a failed append; write a snapshot to resume",
                ));
                return;
            }
            let since = lake.version();
            let _ = f(lake);
            if let Err(e) = log.lake.append_since(lake, since) {
                log.broken = true;
                outcome = Err(e);
            }
        });
        outcome.map(|_| version)
    }

    /// Checkpoint the served lake to a durable snapshot, truncating the
    /// now-covered log. Runs under the lake read guard, so a concurrent
    /// mutation is either fully before or fully after the snapshot.
    pub fn snapshot(&self) -> io::Result<()> {
        self.service.with_state(|lake, _| {
            let mut log = self.durable.lock().expect("durable lock");
            log.lake.write_snapshot(lake)?;
            log.broken = false;
            Ok(())
        })
    }

    /// Force buffered log appends to stable storage (the explicit flush
    /// for [`DurableConfig::fsync_every`](crate::DurableConfig) `= 0`).
    pub fn sync(&self) -> io::Result<()> {
        self.durable.lock().expect("durable lock").lake.sync()
    }

    /// Records currently in the commitlog (since the last snapshot).
    pub fn log_len(&self) -> usize {
        self.durable.lock().expect("durable lock").lake.log_len()
    }
}
