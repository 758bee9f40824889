//! The store replica servant: a `CheckpointService`-compatible object
//! that replicates writes to its peers with quorum acknowledgement,
//! versions checkpoints by epoch, and trims superseded data on write.
//!
//! ## Coordination
//!
//! Coordination is leaderless: whichever replica a client's `resolve`
//! picked becomes the coordinator *for that write*. The coordinator
//! applies the record locally, reads the current membership **view**
//! (the replicas bound in the `"CheckpointService"` naming group), and
//! fans the record out to every peer as a `repl_*` operation. `repl_*`
//! operations apply locally and never fan out further, so replication
//! cannot loop. The write succeeds once every replica in the view
//! (counting the coordinator) has acknowledged; otherwise the client sees
//! `TRANSIENT` and the FT proxy's store failover retries elsewhere.
//!
//! Quorums are evaluated against the *view*, not the configured
//! replication factor: failure-detector eviction is a view change, so a
//! lone survivor of an N=2 deployment keeps accepting writes instead of
//! deadlocking on its dead peer.
//!
//! ## View revisions
//!
//! Every view carries the naming group's **membership revision** (bumped
//! on each bind/unbind). The coordinator stamps that revision on each
//! `repl_*` fan-out, and replicas reject writes stamped with a revision
//! older than one they have already witnessed — a coordinator still
//! acting on a pre-heal view cannot assemble a quorum until it refreshes.
//! Symmetrically, a coordinator that cannot *reach* the naming service
//! does not guess "solo": an unconfirmable view fails the write with
//! `TRANSIENT`, because silently shrinking to a one-replica view is
//! exactly the split-brain a partition minority would otherwise commit.
//!
//! With a quorum of the whole view every live replica holds every acked
//! write, so reads are served locally by whichever replica the client
//! resolved — "any live replica holding the newest acked epoch". A
//! replica may additionally hold a *newer unacked* epoch (its quorum
//! failed); restoring it is harmless — the state is a valid snapshot the
//! client simply did not get confirmation for.
//!
//! ## A replica alone
//!
//! The paper's deployment is one checkpoint service under a plain
//! binding: [`StoreReplica::alone`], served by [`run_checkpoint_service`].
//! It belongs to no group, so its view is always empty — no `group_view`
//! RPC, no view change — and every write is applied locally and answered
//! through the solo branch of the quorum path.

use std::collections::BTreeMap;
use std::rc::Rc;

use cdr::{Any, Epoch, TypeCode, Value};
use cosnaming::{Name, NamingClient, NotFound};
use ftproxy::per_value::{read_chunk, Header, HEADER_KEY};
use ftproxy::{Checkpoint, CHECKPOINT_SERVICE_NAME, CHECKPOINT_SERVICE_TYPE, FT};
use obs::EventBody;
use orb::{CallCtx, Exception, Ior, Orb, SystemException};
use simnet::{Ctx, HostId, SimDuration, SimResult, SimTime};

use crate::protocol::{ReplicationSkeleton, ReplicationStub, Store, StoreConfig};

/// How long a fetched membership view stays fresh before the coordinator
/// re-reads the group from the naming service.
const VIEW_TTL: SimDuration = SimDuration::from_millis(100);
/// Epochs retained per object id (K). Older bulk epochs are trimmed on
/// write; per-value chunks more than K-1 epochs behind the newest header
/// are reclaimed.
const RETAIN_EPOCHS: usize = 2;

// The cost model of one replica. The paper's store was "rather
// inefficient" and "not optimized for speed in any way"; these reproduce
// that.
/// CPU work per bulk store/retrieve, plus [`BULK_PER_BYTE`] per state byte.
const BULK_FIXED: f64 = 100e-6;
/// CPU work per state byte on the bulk path (~20 MB/s).
const BULK_PER_BYTE: f64 = 5e-8;
/// CPU work per `store_value`/`retrieve_value` call. Deliberately
/// expensive: the proof-of-concept stores values one at a time.
const VALUE_FIXED: f64 = 500e-6;

/// A `repl_store_value` request before anything is decoded into it.
fn blank_request() -> (String, String, Any) {
    let nothing = Any {
        tc: TypeCode::Void,
        value: Value::Void,
    };
    (String::new(), String::new(), nothing)
}

fn killed() -> Exception {
    Exception::System(SystemException::comm_failure("killed"))
}

/// What `retrieve` answers beside `false` when nothing is stored under
/// `object_id`.
fn no_checkpoint(object_id: String) -> Checkpoint {
    Checkpoint {
        object_id,
        epoch: Epoch::ZERO,
        state: Vec::new(),
        stamp_ns: 0,
    }
}

/// Which `repl_*` operation a coordinated write fans out as.
#[derive(Clone, Copy)]
enum Fanout {
    Store,
    StoreValue,
}

impl Fanout {
    fn op(self) -> &'static str {
        match self {
            Fanout::Store => ReplicationStub::OP_REPL_STORE,
            Fanout::StoreValue => ReplicationStub::OP_REPL_STORE_VALUE,
        }
    }

    /// Send the view-stamped `body` to one peer; only the ack matters.
    fn deliver(
        self,
        peer: &ReplicationStub,
        orb: &mut Orb,
        ctx: &mut Ctx,
        revision: u64,
        body: &Vec<u8>,
    ) -> SimResult<Result<(), Exception>> {
        match self {
            Fanout::Store => peer.repl_store(orb, ctx, &revision, body),
            Fanout::StoreValue => peer.repl_store_value(orb, ctx, &revision, body),
        }
    }
}

/// One replica of the replicated checkpoint store.
pub struct StoreReplica {
    cfg: StoreConfig,
    /// The naming service and group name the view is read from; `None`
    /// for a replica alone, whose view is always empty.
    group: Option<(HostId, Name)>,
    /// This replica's own reference; set after activation so the view
    /// can exclude it.
    pub self_ior: Option<Ior>,
    /// Cached membership view: `(fetched_at, revision, peers)`, each peer
    /// a stub that already carries the replication deadline.
    view_cache: Option<(SimTime, u64, Rc<[ReplicationStub]>)>,
    /// Highest membership revision witnessed, from our own view fetches
    /// or stamped on incoming `repl_*` writes.
    highest_view_revision: u64,
    /// Epoch-versioned bulk checkpoints: object id → epoch → record.
    bulks: BTreeMap<String, BTreeMap<Epoch, Checkpoint>>,
    /// Per-value records (the paper's proof-of-concept interface).
    values: BTreeMap<String, BTreeMap<String, Any>>,
    /// The last `repl_store_value` request decoded, and then the value its
    /// write displaced: the next request is decoded over it, so a peer
    /// rewriting a value of the same shape builds no new strings,
    /// TypeCode or buffers.
    scratch: (String, String, Any),
    /// Last view size emitted, to emit view changes only on actual
    /// membership transitions.
    last_view_published: Option<u32>,
}

impl StoreReplica {
    /// A fresh, empty replica of the `"CheckpointService"` group on
    /// `naming_host`.
    pub fn new(cfg: StoreConfig, naming_host: HostId) -> Self {
        Self::with_group(
            cfg,
            Some((naming_host, Name::simple(CHECKPOINT_SERVICE_NAME))),
        )
    }

    /// A fresh, empty replica with no group: the paper's single checkpoint
    /// service.
    pub fn alone(cfg: StoreConfig) -> Self {
        Self::with_group(cfg, None)
    }

    fn with_group(cfg: StoreConfig, group: Option<(HostId, Name)>) -> Self {
        StoreReplica {
            cfg,
            group,
            self_ior: None,
            view_cache: None,
            highest_view_revision: 0,
            bulks: BTreeMap::new(),
            values: BTreeMap::new(),
            scratch: blank_request(),
            last_view_published: None,
        }
    }

    /// Record a view-change or quorum-write event on the serving ORB's
    /// sink; the event is only built when it records. The paper's lone
    /// checkpoint service (no group) records none: every write it takes
    /// is a quorum of one.
    fn emit(&self, call: &CallCtx<'_>, body: impl FnOnce() -> EventBody) {
        let o = call.orb.obs();
        if self.group.is_some() && o.recording() {
            o.event(call.ctx.now(), body());
        }
    }

    // ------------------------------------------------------------------
    // Local state transitions (pure, unit-testable)
    // ------------------------------------------------------------------

    /// Insert a bulk record, trimming epochs beyond the retention window.
    /// Returns how many epochs were trimmed.
    pub(crate) fn apply_bulk(&mut self, ckpt: Checkpoint) -> u64 {
        let epochs = self.bulks.entry(ckpt.object_id.clone()).or_default();
        epochs.insert(ckpt.epoch, ckpt);
        let mut dropped = 0;
        while epochs.len() > RETAIN_EPOCHS {
            let Some(&oldest) = epochs.keys().next() else {
                break;
            };
            epochs.remove(&oldest);
            dropped += 1;
        }
        dropped
    }

    /// Insert one named value. A `CkptHeader` write advances the object's
    /// newest epoch and reclaims chunks that fell out of the retention
    /// window (shrinking states leave tail chunks behind that no header
    /// references any more). Returns how many chunks were reclaimed.
    pub(crate) fn apply_value(&mut self, id: &str, key: &str, value: Any) -> u64 {
        let header_epoch = if key == HEADER_KEY {
            Header::read(&value).map(|h| h.epoch)
        } else {
            None
        };
        // Rewrites reuse the stored object and key, and the value they
        // displace becomes the scratch the next peer write decodes over.
        let vals = match self.values.get_mut(id) {
            Some(vals) => vals,
            None => self.values.entry(id.to_owned()).or_default(),
        };
        match vals.get_mut(key) {
            Some(slot) => self.scratch.2 = std::mem::replace(slot, value),
            None => {
                vals.insert(key.to_owned(), value);
            }
        }
        let mut dropped = 0;
        if let Some(e) = header_epoch {
            let floor = Epoch(e.get().saturating_sub(RETAIN_EPOCHS as u64 - 1));
            vals.retain(|k, v| {
                if k == HEADER_KEY {
                    return true;
                }
                match read_chunk(v) {
                    Some((ce, _)) if ce < floor => {
                        dropped += 1;
                        false
                    }
                    _ => true,
                }
            });
        }
        dropped
    }

    /// The newest locally held bulk epoch for an object.
    pub(crate) fn local_newest(&self, id: &str) -> Option<&Checkpoint> {
        self.bulks.get(id).and_then(|m| m.values().next_back())
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// The current peer view: the group's membership revision plus its
    /// members, deduplicated, sorted by `(host, port, key)` for
    /// deterministic fan-out order, and excluding this replica itself.
    /// Cached for [`VIEW_TTL`] — but a cached view is also discarded early
    /// when a peer's stamped write has already proven it stale. A replica
    /// alone has no peers and asks nobody.
    fn view(&mut self, call: &mut CallCtx<'_>) -> Result<(u64, Rc<[ReplicationStub]>), Exception> {
        let Some((naming_host, group)) = &self.group else {
            return Ok((0, Rc::new([])));
        };
        let now = call.ctx.now();
        if let Some((at, rev, v)) = &self.view_cache {
            if now.since(*at) <= VIEW_TTL && *rev >= self.highest_view_revision {
                return Ok((*rev, Rc::clone(v)));
            }
        }
        let ns = NamingClient::root(*naming_host);
        let (revision, members) = match ns
            .group_view(call.orb, call.ctx, group)
            .map_err(|_| killed())?
        {
            Ok(rv) => rv,
            // The name is not a group (a legacy single-store binding):
            // coordinate solo, under the pre-group revision 0.
            Err(e) if NotFound::extract(&e).is_some() => (0, Vec::new()),
            // Naming unreachable — crashed, or we are on the wrong side
            // of a partition. An unconfirmable view must NOT collapse to
            // "solo": that is the split-brain a partition minority would
            // commit. Fail the write; the client retries elsewhere.
            Err(_) => {
                return Err(Exception::System(SystemException::transient(
                    "membership view unavailable (naming unreachable)",
                )))
            }
        };
        self.highest_view_revision = self.highest_view_revision.max(revision);
        let mut peers: Vec<Ior> = members
            .into_iter()
            .filter(|m| self.self_ior.as_ref() != Some(m))
            .collect();
        peers.sort_by_key(|a| (a.host, a.port, a.key));
        peers.dedup();
        let deadline = Some(self.cfg.repl_timeout);
        let peers: Rc<[ReplicationStub]> = peers
            .into_iter()
            .map(|p| ReplicationStub::from_ior(p).with_deadline(deadline))
            .collect();
        self.view_cache = Some((now, revision, Rc::clone(&peers)));
        // The write quorum is every member of the view.
        let members = (peers.len() + 1) as u32;
        if self.last_view_published != Some(members) {
            self.last_view_published = Some(members);
            self.emit(call, || EventBody::ViewChange {
                members,
                quorum: members,
            });
        }
        Ok((revision, peers))
    }

    /// Admit (or reject) a peer-coordinated write stamped with the
    /// membership revision the coordinator acted on. Older than one this
    /// replica has witnessed means the coordinator is still on a pre-heal
    /// view: reject, so it cannot assemble a quorum without refreshing.
    fn note_coordinator_view(&mut self, revision: u64) -> Result<(), Exception> {
        if revision < self.highest_view_revision {
            return Err(Exception::System(SystemException::transient(format!(
                "stale membership view: write stamped revision {revision}, \
                 replica has witnessed {}",
                self.highest_view_revision
            ))));
        }
        self.highest_view_revision = revision;
        Ok(())
    }

    /// Fan a locally applied write out to the peers in the view and
    /// enforce the quorum. Each peer gets the client request body as it
    /// arrived (the in-parameters as the client's stub encoded them) as
    /// `(view_revision, body)`, so replicas can reject a stale view.
    fn replicate(
        &mut self,
        call: &mut CallCtx<'_>,
        fanout: Fanout,
        object: &str,
        epoch: Epoch,
    ) -> Result<(), Exception> {
        let (revision, peers) = self.view(call)?;
        let view_size = peers.len() + 1; // the coordinator is in the view
        if peers.is_empty() {
            self.emit(call, || EventBody::QuorumWrite {
                object: object.into(),
                epoch: epoch.get(),
                acks: 1,
                view: 1,
                quorum: 1,
            });
            return Ok(());
        }
        let body = call.args.to_vec();
        let o = call.orb.obs().clone();
        o.begin(call.ctx.now(), "store.replicate");
        o.tag("op", fanout.op());
        let mut acks = 1usize; // the coordinator's local apply
        for peer in peers.iter() {
            match fanout.deliver(peer, call.orb, call.ctx, revision, &body) {
                Ok(Ok(())) => {
                    acks += 1;
                    o.counter_add("store.repl_acks", 1);
                }
                // The detector (or a client's retarget) will evict the
                // peer; until then the quorum check below decides.
                Ok(Err(_dead_or_slow_peer)) => o.counter_add("store.repl_failures", 1),
                Err(_killed) => {
                    o.finish(call.ctx.now(), false);
                    return Err(killed());
                }
            }
        }
        let ok = acks == view_size;
        o.finish(call.ctx.now(), ok);
        self.emit(call, || EventBody::QuorumWrite {
            object: object.into(),
            epoch: epoch.get(),
            acks: acks as u32,
            view: view_size as u32,
            quorum: view_size as u32,
        });
        if ok {
            Ok(())
        } else {
            o.counter_add("store.quorum_failures", 1);
            Err(Exception::System(SystemException::transient(format!(
                "replication quorum not reached: {acks}/{view_size} acks (view {view_size})"
            ))))
        }
    }

    fn compute(&self, call: &mut CallCtx<'_>, work: f64) -> Result<(), Exception> {
        call.ctx.compute(work).map_err(|_| killed())
    }

    fn bulk_work(state_bytes: usize) -> f64 {
        BULK_FIXED + BULK_PER_BYTE * state_bytes as f64
    }

    /// The request body of a peer-coordinated write, once its view stamp
    /// is admitted: the in-parameters of the client operation it repeats.
    fn admit<T: cdr::CdrRead>(&mut self, revision: u64, body: &[u8]) -> Result<T, Exception> {
        self.note_coordinator_view(revision)?;
        Ok(cdr::from_bytes(body).map_err(SystemException::marshal)?)
    }
}

// ---------------- the client-facing checkpoint service ---------------------
// Writes are coordinated: applied locally, then fanned out to the view as
// the request body that arrived. Reads are served locally.
impl FT::CheckpointService for StoreReplica {
    fn store(&mut self, call: &mut CallCtx<'_>, c: Checkpoint) -> Result<(), Exception> {
        // Confirm the membership view BEFORE applying locally: a
        // coordinator that cannot read the view (a partition
        // minority) must fail cleanly, not leave a divergent
        // epoch behind for a post-heal reader to find.
        self.view(call)?;
        self.compute(call, Self::bulk_work(c.state.len()))?;
        let (object, epoch) = (c.object_id.clone(), c.epoch);
        self.apply_bulk(c);
        self.replicate(call, Fanout::Store, &object, epoch)
    }

    fn retrieve(
        &mut self,
        call: &mut CallCtx<'_>,
        object_id: String,
    ) -> Result<(bool, Checkpoint), Exception> {
        let got = self.local_newest(&object_id).cloned();
        self.compute(
            call,
            Self::bulk_work(got.as_ref().map_or(0, |c| c.state.len())),
        )?;
        Ok(match got {
            Some(c) => (true, c),
            None => (false, no_checkpoint(object_id)),
        })
    }

    fn store_value(
        &mut self,
        call: &mut CallCtx<'_>,
        object_id: String,
        key: String,
        value: Any,
    ) -> Result<(), Exception> {
        self.view(call)?;
        self.compute(call, VALUE_FIXED)?;
        let epoch = if key == HEADER_KEY {
            Header::read(&value).map_or(Epoch::ZERO, |h| h.epoch)
        } else {
            Epoch::ZERO
        };
        self.apply_value(&object_id, &key, value);
        self.replicate(call, Fanout::StoreValue, &object_id, epoch)
    }

    fn retrieve_value(
        &mut self,
        call: &mut CallCtx<'_>,
        object_id: String,
        key: String,
    ) -> Result<(bool, Any), Exception> {
        self.compute(call, VALUE_FIXED)?;
        Ok(
            match self.values.get(&object_id).and_then(|m| m.get(&key)) {
                Some(v) => (true, v.clone()),
                None => (false, Any::boolean(false)),
            },
        )
    }
}

// ---------------- replica-to-replica applies -------------------------------
// Each `repl_*` write carries `(view_revision, body)`: the membership
// revision the coordinator acted on, then the original client request
// body. Stale revisions are rejected before applying.
impl Store::Replication for StoreReplica {
    fn repl_store(
        &mut self,
        call: &mut CallCtx<'_>,
        view_revision: u64,
        body: Vec<u8>,
    ) -> Result<(), Exception> {
        let (ckpt,): (Checkpoint,) = self.admit(view_revision, &body)?;
        self.compute(call, Self::bulk_work(ckpt.state.len()))?;
        self.apply_bulk(ckpt);
        Ok(())
    }

    fn repl_store_value(
        &mut self,
        call: &mut CallCtx<'_>,
        view_revision: u64,
        body: Vec<u8>,
    ) -> Result<(), Exception> {
        self.note_coordinator_view(view_revision)?;
        cdr::from_bytes_into(&mut self.scratch, &body).map_err(SystemException::marshal)?;
        self.compute(call, VALUE_FIXED)?;
        let (id, key, value) = std::mem::replace(&mut self.scratch, blank_request());
        self.apply_value(&id, &key, value);
        (self.scratch.0, self.scratch.1) = (id, key);
        Ok(())
    }
}

/// How a replica process registers under [`CHECKPOINT_SERVICE_NAME`]: a
/// bounded, retrying naming call (`rebind_retry` or
/// `bind_group_member_retry`).
type Register =
    fn(&NamingClient, &mut Orb, &mut Ctx, &Name, &Ior) -> SimResult<Result<(), Exception>>;

/// The body of one store-replica process: activate the servant, register
/// it (retrying while naming boots), and serve forever.
fn serve(
    ctx: &mut Ctx,
    naming_host: HostId,
    replica: StoreReplica,
    sink: Option<obs::Obs>,
    register: Register,
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::from_sink(sink, ctx));
    orb.listen(ctx)?;
    let poa = orb::Poa::new();
    let replica = Rc::new(std::cell::RefCell::new(ReplicationSkeleton(replica)));
    let key = poa.activate(CHECKPOINT_SERVICE_TYPE, replica.clone());
    let ior = orb.ior(CHECKPOINT_SERVICE_TYPE, key);
    replica.borrow_mut().0.self_ior = Some(ior.clone());
    let name = Name::simple(CHECKPOINT_SERVICE_NAME);
    if register(&NamingClient::root(naming_host), &mut orb, ctx, &name, &ior)?.is_err() {
        // Registration budget exhausted: an unregistered replica never
        // receives checkpoints — die instead of spinning.
        return Err(simnet::Killed);
    }
    orb.serve_forever(ctx, &poa)
}

/// One replica of a replicated store: joins the `"CheckpointService"`
/// naming group and serves forever.
pub fn run_store_replica(
    ctx: &mut Ctx,
    naming_host: HostId,
    cfg: StoreConfig,
    sink: Option<obs::Obs>,
) -> SimResult<()> {
    let replica = StoreReplica::new(cfg, naming_host);
    serve(
        ctx,
        naming_host,
        replica,
        sink,
        NamingClient::bind_group_member_retry,
    )
}

/// The paper's checkpoint service: a [`StoreReplica::alone`], bound (plain
/// `rebind`, not a group) under `"CheckpointService"`, serving forever.
pub fn run_checkpoint_service(
    ctx: &mut Ctx,
    naming_host: HostId,
    cfg: StoreConfig,
    sink: Option<obs::Obs>,
) -> SimResult<()> {
    let replica = StoreReplica::alone(cfg);
    serve(ctx, naming_host, replica, sink, NamingClient::rebind_retry)
}
