//! The fault-tolerant object proxy — the paper's §3, alternative (c).
//!
//! An [`FtProxy`] stands in for a stub on the client side. Every method
//! call goes through [`FtProxy::call`], which
//!
//! 1. invokes the operation on the current target reference, asking for
//!    the server object's state with the reply when a checkpoint is due,
//! 2. on success, stores that state in the checkpoint service ("after
//!    each method call on the server side"), and
//! 3. on `COMM_FAILURE` (or another recoverable system exception),
//!    **recovers**: the dead target is dropped, a fresh replica is
//!    resolved from the service's naming group and taken out of it (or a
//!    new instance is created through a service factory on the host
//!    Winner currently ranks best), and the call is retried carrying the
//!    last acked checkpoint, which the replica restores before it
//!    dispatches.
//!
//! The state and the restore ride the call as two GIOP service contexts
//! ([`crate::servant`]): one round trip per checkpointed call. Typed
//! proxies generated by `idlc` (`<I>FtProxy`) are thin wrappers over this
//! engine, "derived from the stub class" exactly as the paper puts it.
//!
//! ## Where recovery reads
//!
//! The proxy keeps the `(epoch, state)` of the last checkpoint the store
//! **acknowledged** and restores replacements from that copy; it reads
//! the store only while it has none (a fresh proxy's first bind), and the
//! stored state it read becomes its copy. Reading back a state the proxy
//! itself wrote one call earlier costs one round trip per value in
//! [`CheckpointMode::PerValue`], and after a checkpoint whose writes
//! failed half-way the store holds mixed-epoch values that reassembly
//! rejects — the replacement would start cold. The copy is whole and is
//! never replaced by an unacked attempt, so a replacement always holds the
//! last acked epoch.
//!
//! ## One instance, one proxy
//!
//! A restore replaces the instance's whole state, so an instance must
//! serve one proxy. That is structural: [`FtProxy::ensure_target`] takes a
//! resolved member out of its group before any request reaches it, and a
//! factory-created instance never joins one. No other proxy can resolve
//! an instance this one holds. Every request to a new instance carries the
//! restore until a reply shows it applied, so a restore lost on its way in
//! is sent again, and an instance serves either with the proxy's state or
//! not at all.
//!
//! Still a standing assumption: **one `FtProxy` per `object_id`**. The
//! epoch counter is proxy-local, so two proxies checkpointing the same
//! object overwrite or shadow each other's records with or without the
//! copy; with it, neither restores what the other wrote. A proxy taking
//! over an object starts without a copy and reads the store once.
//!
//! ## Exactly-once
//!
//! A call whose checkpoint is due is done once its reply has brought the
//! state back and the store has answered. A reply that never comes
//! (`COMM_FAILURE`), or one without the state (the servant refused
//! `get_checkpoint`), fails the attempt: the call's effect lives only in
//! that target, so the proxy drops it and re-sends the call, with `acked`
//! (the state before the call), to a replacement. Still open: a refused
//! store write followed by a crash restores a copy one call old. Like the
//! paper's prototype, recovery re-runs calls whose completion status is
//! `Maybe`, on restored state; an operation with effects outside its
//! servant must tolerate that (the optimization workers have none).

use std::sync::Arc;

use cdr::{CdrRead, CdrWrite, Epoch};
use cosnaming::{EmptyGroup, Name, NamingClient, NotFound};
use obs::EventBody;
use orb::{Body, Exception, Ior, ObjectRef, Orb, ServiceContext, SystemException};
use rand::Rng;
use simnet::{Ctx, SimDuration, SimResult};

use crate::factory::{factory_group, FactoryClient};
use crate::per_value;
use crate::protocol::Checkpoint;
use crate::request_proxy::{decode_reply, FtRequest};
use crate::servant::{CHECKPOINT_CONTEXT_ID, RESTORE_CONTEXT_ID};
use crate::service::{CheckpointClient, CHECKPOINT_SERVICE_NAME};

/// Everything a proxy method needs from the calling process.
pub struct ProxyEnv<'a> {
    /// The process's ORB.
    pub orb: &'a mut Orb,
    /// The simulation handle.
    pub ctx: &'a mut Ctx,
}

/// What one attempt asked of its target beside the call.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Asked {
    /// The epoch of the restore it carried.
    pub(crate) restore: Option<Epoch>,
    /// Whether it asked for the state after the call.
    pub(crate) checkpoint: bool,
}

/// How the proxy persists server state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointMode {
    /// One bulk `store` RPC per checkpoint — the optimized path (the
    /// paper's future-work item (a)).
    Bulk,
    /// The paper's proof-of-concept: the state is stored value by value
    /// (8-byte words), one RPC each. "Rather inefficient" — this is where
    /// Table 1's overhead comes from.
    PerValue,
    /// No checkpointing (for stateless services).
    None,
}

/// Proxy configuration.
#[derive(Clone, Debug)]
pub struct FtProxyConfig {
    /// The service's group name in the naming service.
    pub service_name: Name,
    /// The service type passed to factories when a new instance must be
    /// created.
    pub service_type: String,
    /// Stable checkpoint identity of this logical service.
    pub object_id: String,
    /// Checkpoint transport mode.
    pub mode: CheckpointMode,
    /// Checkpoint after every `k`-th successful call (1 = the paper).
    pub checkpoint_every: u32,
    /// Recovery attempts per call before giving up.
    pub max_recoveries_per_call: u32,
    /// Store failover: a recoverable failure on a store operation evicts
    /// the dead store replica from the [`CHECKPOINT_SERVICE_NAME`] group,
    /// re-resolves the name and retries the operation against a surviving
    /// replica, up to this many times — instead of burning the call's
    /// worker-recovery attempts. 0 (the default) is the paper's single
    /// store: the operation runs once.
    pub store_retries: u32,
}

/// Per-value mode: how many state bytes one stored "value" carries. The
/// paper's proof of concept stored values individually; 64 bytes is half a
/// population point of a ~16-dimensional optimizer state.
const VALUE_CHUNK_BYTES: usize = 64;
/// The recovery ladder (DESIGN.md §3: "bounded retries, backoff"). The
/// first re-acquire after a failure goes out at once; the ladder paces
/// retries of a *failed acquire*: `BACKOFF_BASE` before the second, each
/// further one `BACKOFF_MULTIPLIER` times longer, never more than
/// `BACKOFF_MAX`. With `max_recoveries_per_call = 3` a call waits
/// 0 / 50 / 100 ms — 150 ms of patience in all — before it gives up.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(50);
const BACKOFF_MULTIPLIER: f64 = 2.0;
const BACKOFF_MAX: SimDuration = SimDuration::from_secs(1);
/// Each delay is scaled by a factor drawn uniformly from
/// `[1 - jitter, 1 + jitter]` with the process's seed-derived RNG, so
/// same-seed runs back off identically while distinct proxies
/// desynchronize.
const BACKOFF_JITTER: f64 = 0.1;
/// Delay before each store retarget attempt (lets the replicated store's
/// own failure detector and re-binding catch up).
const STORE_RETRY_DELAY: SimDuration = SimDuration::from_millis(100);

impl FtProxyConfig {
    /// Paper defaults: per-value checkpointing after every call, three
    /// recovery attempts.
    pub fn new(
        service_name: Name,
        service_type: impl Into<String>,
        object_id: impl Into<String>,
    ) -> Self {
        FtProxyConfig {
            service_name,
            service_type: service_type.into(),
            object_id: object_id.into(),
            mode: CheckpointMode::PerValue,
            checkpoint_every: 1,
            max_recoveries_per_call: 3,
            store_retries: 0,
        }
    }
}

/// Counters the proxy accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtProxyStats {
    /// Successful application calls.
    pub calls: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Checkpoints the store refused: the call still succeeded, and
    /// `acked` stays one call old. A reply without the state is not one;
    /// it fails the attempt, which is redone.
    pub checkpoint_failures: u64,
    /// Recoveries triggered by recoverable exceptions.
    pub recoveries: u64,
    /// States restored into fresh replicas (counted at the reply that
    /// shows the restore applied).
    pub restores: u64,
    /// Instances created through factories.
    pub factory_creates: u64,
    /// Recovery attempts burned because no healthy target could be
    /// acquired (resolve and factory creation both failed).
    pub target_failures: u64,
    /// Checkpoint-store retargets (store replica failovers followed).
    pub store_retargets: u64,
}

/// The generic fault-tolerant proxy engine.
pub struct FtProxy {
    cfg: FtProxyConfig,
    naming: NamingClient,
    ckpt: CheckpointClient,
    target: Option<ObjectRef>,
    /// Whether `target` has yet to receive `acked`: until a reply shows it
    /// applied, every request to it carries the restore.
    restore_pending: bool,
    epoch: Epoch,
    calls_since_ckpt: u32,
    /// The `(epoch, state)` of the last checkpoint the store
    /// *acknowledged*. Recovery restores this copy into the replacement; an
    /// unacked attempt never replaces it (module docs, "Where recovery
    /// reads").
    acked: Option<(Epoch, Vec<u8>)>,
    /// Live counters.
    pub stats: FtProxyStats,
    /// `cfg.object_id`, shared with every event recorded about it.
    id: Arc<str>,
}

impl FtProxy {
    /// Build a proxy. `naming` locates service replicas and factories;
    /// `ckpt` stores state.
    pub fn new(cfg: FtProxyConfig, naming: NamingClient, ckpt: CheckpointClient) -> Self {
        FtProxy {
            naming,
            ckpt,
            target: None,
            restore_pending: false,
            epoch: Epoch::ZERO,
            calls_since_ckpt: 0,
            acked: None,
            stats: FtProxyStats::default(),
            id: cfg.object_id.as_str().into(),
            cfg,
        }
    }

    /// Record one life-cycle event (failure detection, recovery episodes,
    /// checkpoints, restores, per-request latency attribution) about this
    /// proxy's object on the ORB's sink. `body` gets the object id and is
    /// only called when the sink records.
    pub(crate) fn emit(&self, env: &ProxyEnv<'_>, body: impl FnOnce(Arc<str>) -> EventBody) {
        let o = env.orb.obs();
        if o.recording() {
            o.event(env.ctx.now(), body(Arc::clone(&self.id)));
        }
    }

    /// Stable reason label for a failure-detected event.
    pub(crate) fn failure_reason(e: &Exception) -> String {
        match e {
            Exception::System(se) => format!("{:?}", se.kind),
            Exception::User(ue) => ue.id.clone(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FtProxyConfig {
        &self.cfg
    }

    /// The reference currently in use, if bound.
    pub fn current_target(&self) -> Option<&ObjectRef> {
        self.target.as_ref()
    }

    /// Invoke `op` with typed arguments, transparently recovering from
    /// communication failures and checkpointing after success.
    pub fn call<A: CdrWrite, R: CdrRead>(
        &mut self,
        env: &mut ProxyEnv<'_>,
        op: &str,
        args: &A,
    ) -> SimResult<Result<R, Exception>> {
        // One `FtRequest`, sent and awaited: the recovery engine lives
        // there, for both call styles.
        let mut req = FtRequest::send_deferred(self, env, op, args)?;
        Ok(decode_reply(req.get_response(self, env)?))
    }

    /// The FT contexts the next request to the target carries, and what
    /// they ask: the restore while one is pending, and the state after the
    /// call when a checkpoint is due.
    pub(crate) fn request_contexts(&self) -> (Asked, Vec<ServiceContext>) {
        let checkpoint = self.cfg.mode != CheckpointMode::None
            && self.calls_since_ckpt + 1 >= self.cfg.checkpoint_every;
        let mut contexts: Vec<ServiceContext> = self.restore_context().into_iter().collect();
        let restore = self.acked.as_ref().map(|(epoch, _)| *epoch);
        let restore = restore.filter(|_| self.restore_pending);
        let asked = Asked {
            restore,
            checkpoint,
        };
        if checkpoint {
            let data = Vec::new();
            contexts.push(ServiceContext {
                id: CHECKPOINT_CONTEXT_ID,
                data,
            });
        }
        (asked, contexts)
    }

    /// The pending restore: `acked` in `restore_checkpoint`'s argument
    /// encoding.
    fn restore_context(&self) -> Option<ServiceContext> {
        let (_, state) = self.acked.as_ref().filter(|_| self.restore_pending)?;
        let data = cdr::to_bytes(&(state,));
        Some(ServiceContext {
            id: RESTORE_CONTEXT_ID,
            data,
        })
    }

    /// Sleep before re-acquiring after a failed acquire: exponential in
    /// `rung` with deterministic jitter, capped by `BACKOFF_MAX`. `rung`
    /// is zero-based (the delay before the second re-acquire of a call;
    /// the first is not delayed).
    pub(crate) fn backoff_sleep(&mut self, env: &mut ProxyEnv<'_>, rung: u32) -> SimResult<()> {
        let grown = BACKOFF_BASE.as_nanos() as f64 * BACKOFF_MULTIPLIER.powi(rung as i32);
        let capped = grown.min(BACKOFF_MAX.as_nanos() as f64);
        let unit: f64 = env.ctx.rng().random();
        let delay =
            SimDuration::from_nanos((capped * (1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0))) as u64);
        let o = env.orb.obs();
        o.counter_add("ft.backoffs", 1);
        o.observe("ft.backoff_ns", delay.as_nanos());
        env.ctx.sleep(delay)
    }

    /// Resolve (or create) the target reference — binding eagerly.
    /// Usually called implicitly by [`FtProxy::call`]; public so managers
    /// can bind proxies up front (one resolve per proxy lets the naming
    /// service spread placements).
    pub fn ensure_target(
        &mut self,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<ObjectRef, Exception>> {
        if let Some(t) = &self.target {
            return Ok(Ok(t.clone()));
        }
        // 1. Adopt an existing replica from the group, or 2. create one
        //    through a factory. The factory group is itself resolved
        //    through the load-distributing naming service, so the instance
        //    lands on the best host.
        let obj = match self
            .naming
            .resolve(env.orb, env.ctx, &self.cfg.service_name)?
        {
            Ok(obj) => match self.adopt(env, &obj)? {
                Ok(()) => obj,
                Err(e) => return Ok(Err(e)),
            },
            Err(e) if EmptyGroup::extract(&e).is_some() || NotFound::extract(&e).is_some() => {
                match self.create_via_factory(env)? {
                    Ok(ior) => ObjectRef::new(ior),
                    Err(e) => return Ok(Err(e)),
                }
            }
            Err(e) => return Ok(Err(e)),
        };
        // Locate it before any request does: the answer says it lives, and
        // gives its endpoint a round trip without servant work in it — the
        // clock the ORB times a silent host against, where every later
        // reply includes the call's work.
        match env.orb.locate(env.ctx, &obj.ior)? {
            Ok(true) => {}
            Ok(false) => {
                return Ok(Err(SystemException::object_not_exist(
                    "acquired instance is gone",
                )
                .into()))
            }
            Err(e) => return Ok(Err(e)),
        }
        // A fresh proxy has no copy yet: what the store holds is the state
        // to restore, and becomes the copy.
        if self.acked.is_none() {
            match self.fetch_checkpoint(env)? {
                Ok(stored) => {
                    // Continue the epochs found: a store that keeps the
                    // newest epoch would shadow a restart from epoch 1.
                    if let Some((epoch, _)) = &stored {
                        self.epoch = self.epoch.max(*epoch);
                    }
                    self.acked = stored;
                }
                Err(e) => return Ok(Err(e)),
            }
        }
        self.restore_pending = self.acked.is_some();
        if !self.restore_pending {
            self.emit_restored(env, Epoch::ZERO); // nothing stored yet
        }
        self.target = Some(obj.clone());
        Ok(Ok(obj))
    }

    /// Take a resolved member out of the service's group before any
    /// request reaches it: from then on it serves this proxy alone.
    fn adopt(
        &mut self,
        env: &mut ProxyEnv<'_>,
        obj: &ObjectRef,
    ) -> SimResult<Result<(), Exception>> {
        let unbound =
            self.naming
                .unbind_group_member(env.orb, env.ctx, &self.cfg.service_name, &obj.ior)?;
        // Adopted by another proxy, or evicted by the failure detector,
        // since the resolve: try another.
        Ok(unbound.map_err(|e| match NotFound::extract(&e) {
            Some(_) => SystemException::transient("group member adopted elsewhere").into(),
            None => e,
        }))
    }

    /// Create a fresh instance through the factory group. It joins no
    /// naming group: it serves this proxy alone.
    fn create_via_factory(&mut self, env: &mut ProxyEnv<'_>) -> SimResult<Result<Ior, Exception>> {
        let o = env.orb.obs().clone();
        o.begin(env.ctx.now(), "ft.factory_create");
        o.tag("service_type", &self.cfg.service_type);
        let out = self.create_via_factory_inner(env);
        o.finish(env.ctx.now(), matches!(&out, Ok(Ok(_))));
        out
    }

    fn create_via_factory_inner(
        &mut self,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<Ior, Exception>> {
        let factory = match self.naming.resolve(env.orb, env.ctx, &factory_group())? {
            Ok(obj) => FactoryClient::new(obj),
            Err(e) => return Ok(Err(e)),
        };
        let created = match factory.create(env.orb, env.ctx, &self.cfg.service_type)? {
            Ok(Some(ior)) => ior,
            Ok(None) => {
                return Ok(Err(Exception::System(SystemException::transient(format!(
                    "no factory knows service type {:?}",
                    self.cfg.service_type
                )))))
            }
            Err(e) => return Ok(Err(e)),
        };
        self.stats.factory_creates += 1;
        env.orb.obs().counter_add("ft.factory_creates", 1);
        Ok(Ok(created))
    }

    /// React to a failed target: drop the binding so the next
    /// `ensure_target` finds or creates a healthy replica. The dead target
    /// is in no group: it left its group when it was adopted.
    pub(crate) fn recover(&mut self, env: &mut ProxyEnv<'_>) {
        self.stats.recoveries += 1;
        let o = env.orb.obs();
        o.begin(env.ctx.now(), "ft.recover");
        o.counter_add("ft.recoveries", 1);
        self.target = None;
        o.end(env.ctx.now());
    }

    /// Run one checkpoint-store operation with store failover: while
    /// `store_retries` last, a recoverable failure evicts the dead store
    /// replica from its naming group (mirroring worker recovery),
    /// re-resolves the name and retries the checkpoint operation against
    /// the surviving replica.
    fn store_op<T>(
        &mut self,
        env: &mut ProxyEnv<'_>,
        f: impl Fn(&CheckpointClient, &mut ProxyEnv<'_>) -> SimResult<Result<T, Exception>>,
    ) -> SimResult<Result<T, Exception>> {
        let mut out = f(&self.ckpt, env)?;
        for _ in 0..self.cfg.store_retries {
            match &out {
                Err(e) if e.is_recoverable() => {
                    self.retarget_store(env)?;
                    out = f(&self.ckpt, env)?;
                }
                _ => return Ok(out),
            }
        }
        Ok(out)
    }

    /// One store failover step: wait out `STORE_RETRY_DELAY`, evict the
    /// dead replica from the store's naming group (best-effort — the
    /// store-side failure detector may already have done it), and point
    /// the checkpoint client at a freshly resolved replica.
    fn retarget_store(&mut self, env: &mut ProxyEnv<'_>) -> SimResult<()> {
        env.ctx.sleep(STORE_RETRY_DELAY)?;
        self.stats.store_retargets += 1;
        let o = env.orb.obs().clone();
        o.begin(env.ctx.now(), "ft.store_retarget");
        o.counter_add("ft.store_retargets", 1);
        let store_name = Name::simple(CHECKPOINT_SERVICE_NAME);
        let dead = self.ckpt.obj.ior.clone();
        if let Err(_not_a_group_or_gone) =
            self.naming
                .unbind_group_member(env.orb, env.ctx, &store_name, &dead)?
        {
            // Single-binding (unreplicated) store, or already evicted by
            // the store-side failure detector; nothing to clean up.
        }
        let ok = match self.naming.resolve(env.orb, env.ctx, &store_name)? {
            Ok(obj) => {
                self.ckpt.retarget(obj);
                true
            }
            // Keep the old reference; the retried operation fails fast
            // and the next retarget attempt resolves again.
            Err(_no_replica_yet) => false,
        };
        o.finish(env.ctx.now(), ok);
        Ok(())
    }

    /// A reply came back to a request that carried the restore of
    /// `epoch`: the target holds `acked` now.
    pub(crate) fn restored(&mut self, env: &ProxyEnv<'_>, epoch: Epoch) {
        if !std::mem::take(&mut self.restore_pending) {
            return;
        }
        self.stats.restores += 1;
        env.orb.obs().counter_add("ft.restores", 1);
        self.emit_restored(env, epoch);
    }

    /// Record which epoch the replica now being adopted holds
    /// (`Epoch::ZERO`: nothing was restored, it starts cold).
    fn emit_restored(&self, env: &ProxyEnv<'_>, epoch: Epoch) {
        self.emit(env, |target| EventBody::StateRestored {
            target,
            epoch: epoch.get(),
        });
    }

    /// After a successful reply: store the state it brought back, if the
    /// request asked for it. A reply without the state (the servant
    /// refused `get_checkpoint`) is handed back as the attempt's failure:
    /// the call's effect lives only in that target, so the target is
    /// dropped and the call redone on a replica restored from `acked`
    /// (module docs, "Exactly-once"). A refused store write leaves the
    /// call done and the copy one call old.
    pub(crate) fn after_success(
        &mut self,
        env: &mut ProxyEnv<'_>,
        reply: &Body,
        asked: bool,
    ) -> SimResult<Result<(), Exception>> {
        if self.cfg.mode == CheckpointMode::None {
            return Ok(Ok(()));
        }
        if !asked {
            self.calls_since_ckpt += 1;
            return Ok(Ok(()));
        }
        let state = reply
            .service_context(CHECKPOINT_CONTEXT_ID)
            .and_then(|data| cdr::from_bytes::<Vec<u8>>(data).ok());
        let Some(state) = state else {
            // The call is redone, and counted then.
            self.target = None;
            return Ok(Err(SystemException::transient(
                "the reply carries no checkpoint",
            )
            .into()));
        };
        self.calls_since_ckpt += 1;
        let o = env.orb.obs().clone();
        o.begin(env.ctx.now(), "ft.checkpoint");
        let begun = env.ctx.now();
        let bytes = state.len() as u64;
        o.observe("ft.checkpoint_bytes", bytes);
        let ok = self.store_checkpoint(env, state)?;
        if ok {
            // Only a stored checkpoint clears the due-counter: after a
            // failed attempt the next successful call must try again
            // immediately, not wait another `checkpoint_every` calls.
            self.calls_since_ckpt = 0;
            self.stats.checkpoints += 1;
            let (epoch, dur_ns) = (self.epoch.get(), env.ctx.now().since(begun).as_nanos());
            self.emit(env, |target| EventBody::CheckpointStored {
                target,
                epoch,
                bytes,
                dur_ns,
            });
        } else {
            self.stats.checkpoint_failures += 1;
        }
        o.finish(env.ctx.now(), ok);
        Ok(Ok(()))
    }

    /// Store `state` as the next epoch. Only an acknowledged write
    /// replaces the copy recovery restores from. Returns whether it
    /// landed.
    fn store_checkpoint(&mut self, env: &mut ProxyEnv<'_>, state: Vec<u8>) -> SimResult<bool> {
        self.epoch = self.epoch.next();
        let (ok, state) = match self.cfg.mode {
            CheckpointMode::Bulk => {
                let ckpt = Checkpoint {
                    object_id: self.cfg.object_id.clone(),
                    epoch: self.epoch,
                    state,
                    stamp_ns: env.ctx.now().as_nanos(),
                };
                let ok = matches!(
                    self.store_op(env, |c, env| c.store(env.orb, env.ctx, &ckpt))?,
                    Ok(())
                );
                env.orb.obs().counter_add("ft.checkpoint_rpcs", 1);
                (ok, ckpt.state)
            }
            CheckpointMode::PerValue => (self.store_per_value(env, &state)?, state),
            CheckpointMode::None => return Ok(true), // nothing is stored
        };
        if ok {
            self.acked = Some((self.epoch, state));
        }
        Ok(ok)
    }

    /// The proof-of-concept path: the state is chopped into small chunks
    /// ("arbitrary values"), each stored with its own RPC. One RPC per
    /// value is exactly why the paper calls the prototype "rather
    /// inefficient" — Table 1's overhead lives here.
    fn store_per_value(&mut self, env: &mut ProxyEnv<'_>, state: &[u8]) -> SimResult<bool> {
        let id = self.cfg.object_id.clone();
        let header = per_value::Header {
            len: state.len() as u64,
            epoch: self.epoch,
            chunk: VALUE_CHUNK_BYTES as u64,
        }
        .to_any();
        if self
            .store_op(env, |c, env| {
                c.store_value(env.orb, env.ctx, &id, per_value::HEADER_KEY, &header)
            })?
            .is_err()
        {
            return Ok(false);
        }
        env.orb.obs().counter_add("ft.checkpoint_rpcs", 1);
        // Each value carries the epoch it belongs to, so reassembly can
        // reject a mix of chunks from different checkpoints (a same-length
        // torn write would otherwise go unnoticed). One `Any` carries every
        // value in turn: only its bytes change.
        let mut v = per_value::chunk(self.epoch, &[]);
        for (i, part) in state.chunks(VALUE_CHUNK_BYTES).enumerate() {
            per_value::refill_chunk(&mut v, part);
            let key = per_value::chunk_key(i);
            if self
                .store_op(env, |c, env| c.store_value(env.orb, env.ctx, &id, &key, &v))?
                .is_err()
            {
                return Ok(false);
            }
            env.orb.obs().counter_add("ft.checkpoint_rpcs", 1);
        }
        Ok(true)
    }

    /// Fetch the stored state (and its epoch) in whatever mode is
    /// configured.
    #[expect(
        clippy::type_complexity,
        reason = "the outer SimResult is the kernel's, the inner Result the store's answer; expiry 2027-06"
    )]
    fn fetch_checkpoint(
        &mut self,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<Option<(Epoch, Vec<u8>)>, Exception>> {
        match self.cfg.mode {
            CheckpointMode::None => Ok(Ok(None)),
            CheckpointMode::Bulk => {
                let id = self.cfg.object_id.clone();
                match self.store_op(env, |c, env| c.retrieve(env.orb, env.ctx, &id))? {
                    Ok(Some(c)) => Ok(Ok(Some((c.epoch, c.state)))),
                    Ok(None) => Ok(Ok(None)),
                    Err(e) => Ok(Err(e)),
                }
            }
            CheckpointMode::PerValue => {
                let id = self.cfg.object_id.clone();
                let header = match self.store_op(env, |c, env| {
                    c.retrieve_value(env.orb, env.ctx, &id, per_value::HEADER_KEY)
                })? {
                    Ok(Some(h)) => h,
                    Ok(None) => return Ok(Ok(None)),
                    Err(e) => return Ok(Err(e)),
                };
                let Some(header) = per_value::Header::read(&header) else {
                    return Ok(Ok(None));
                };
                let (len, epoch) = (header.len as usize, header.epoch);
                let parts = len.div_ceil((header.chunk as usize).max(1));
                // `len` is only what the stored header claims: grow with the
                // chunks that arrive, never reserve it up front.
                let mut state = Vec::new();
                for i in 0..parts {
                    let key = per_value::chunk_key(i);
                    match self
                        .store_op(env, |c, env| c.retrieve_value(env.orb, env.ctx, &id, &key))?
                    {
                        Ok(Some(v)) => match per_value::read_chunk(&v) {
                            Some((e, bytes)) if e == epoch => state.extend_from_slice(bytes),
                            // A chunk from a different checkpoint: even if
                            // the total length would match, the reassembly
                            // is torn. Corrupt, as is a record of another
                            // shape.
                            _ => return Ok(Ok(None)),
                        },
                        Ok(None) => return Ok(Ok(None)), // incomplete
                        Err(e) => return Ok(Err(e)),
                    }
                }
                if state.len() != len {
                    return Ok(Ok(None)); // truncated or oversized chunks
                }
                Ok(Ok(Some((epoch, state))))
            }
        }
    }
}
