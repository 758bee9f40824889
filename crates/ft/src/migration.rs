//! Service migration driven by load changes.
//!
//! The paper observes (§3) that once a class can checkpoint and restore
//! its state, "it is in principle possible to migrate a service from one
//! host to another one not only when an error occured but also due to a
//! changing load situation". This module implements that: a one-shot
//! [`migrate_member`] primitive and a periodic [`run_migration_manager`]
//! that watches Winner's load data and moves group members off overloaded
//! hosts. The old location is left holding a [`ForwardingAgent`]
//! (GIOP `LocationForward`), so stale references transparently follow.
//!
//! [`ForwardingAgent`]: crate::factory::ForwardingAgent

use simnet::Shared;

use cosnaming::{Name, NamingClient};
use orb::{Exception, Ior, ObjectRef, Orb, SystemException};
use simnet::{Ctx, HostId, SimDuration, SimResult};
use winner::SystemManagerClient;

use crate::factory::{factory_name, FactoryClient};

/// Migration manager tuning.
#[derive(Clone, Debug)]
pub struct MigrationConfig {
    /// The service group to manage.
    pub group: Name,
    /// Service type to instantiate at the destination.
    pub service_type: String,
    /// Check period.
    pub period: SimDuration,
    /// Migrate when the best host's score exceeds the current host's by
    /// this factor (hysteresis against thrashing).
    pub improvement_factor: f64,
    /// Operation fetching the service state.
    pub checkpoint_op: String,
    /// Operation restoring the service state.
    pub restore_op: String,
}

impl MigrationConfig {
    /// Defaults: 2 s period, migrate on 1.8× improvement.
    pub fn new(group: Name, service_type: impl Into<String>) -> Self {
        MigrationConfig {
            group,
            service_type: service_type.into(),
            period: SimDuration::from_secs(2),
            improvement_factor: 1.8,
            checkpoint_op: "get_checkpoint".into(),
            restore_op: "restore_checkpoint".into(),
        }
    }
}

/// Shared counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationStats {
    /// Successful migrations.
    pub migrations: u64,
    /// Migration attempts that failed.
    pub failures: u64,
}

/// One planned member move: everything [`migrate_member`] needs beyond
/// the live ORB/context handles.
#[derive(Clone, Debug)]
pub struct MemberMove<'a> {
    /// Host running the naming service.
    pub naming_host: HostId,
    /// The service group the member belongs to.
    pub group: &'a Name,
    /// The member being moved.
    pub member: &'a Ior,
    /// Destination host (must run a factory).
    pub dest_host: HostId,
    /// Service type to instantiate at the destination.
    pub service_type: &'a str,
    /// Operation fetching the service state.
    pub checkpoint_op: &'a str,
    /// Operation restoring the service state.
    pub restore_op: &'a str,
}

/// Move one group member per the plan: checkpoint → create replacement
/// via the destination factory → restore → swap naming bindings → leave a
/// forwarding agent behind. Returns the new member's reference.
pub fn migrate_member(
    orb: &mut Orb,
    ctx: &mut Ctx,
    mv: &MemberMove<'_>,
) -> SimResult<Result<Ior, Exception>> {
    let MemberMove {
        naming_host,
        group,
        member,
        dest_host,
        service_type,
        checkpoint_op,
        restore_op,
    } = *mv;
    let ns = NamingClient::root(naming_host);
    let old = ObjectRef::new(member.clone());

    // 1. Freeze the service's state (the service keeps serving; the last
    //    writer wins, as in the paper's prototype).
    let state: Vec<u8> = match old.call(orb, ctx, checkpoint_op, &())? {
        Ok(s) => s,
        Err(e) => return Ok(Err(e)),
    };

    // 2. Create a replacement on the destination host via its factory.
    let factory = match ns.resolve(orb, ctx, &factory_name(dest_host))? {
        Ok(obj) => FactoryClient::new(obj),
        Err(e) => return Ok(Err(e)),
    };
    let new_ior = match factory.create(orb, ctx, service_type)? {
        Ok(Some(ior)) => ior,
        Ok(None) => {
            return Ok(Err(Exception::System(SystemException::transient(format!(
                "factory on {dest_host} cannot create {service_type:?}"
            )))))
        }
        Err(e) => return Ok(Err(e)),
    };

    // 3. Restore state into the replacement.
    let new_obj = ObjectRef::new(new_ior.clone());
    if let Err(e) = new_obj.call::<_, ()>(orb, ctx, restore_op, &(state,))? {
        return Ok(Err(e));
    }

    // 4. Swap the naming bindings (new first, so the group never empties).
    if let Err(e) = ns.bind_group_member(orb, ctx, group, &new_ior)? {
        return Ok(Err(e));
    }
    if let Err(_stale) = ns.unbind_group_member(orb, ctx, group, member)? {
        // The new binding is already in place; a failed unbind leaves a
        // stale member that the failure detector will evict. Not fatal.
    }

    // 5. Leave a forwarder at the old location so outstanding references
    //    keep working (via the old host's factory, which owns the POA).
    if let Ok(old_factory) = ns.resolve(orb, ctx, &factory_name(member.host))? {
        let old_factory = FactoryClient::new(old_factory);
        if let Err(_unforwarded) = old_factory.retire_forward(orb, ctx, member.key, &new_ior)? {
            // Best-effort: without the forwarder, holders of the old IOR
            // get COMM_FAILURE and re-resolve through the naming service.
        }
    }

    Ok(Ok(new_ior))
}

/// The migration manager process: periodically compare each member's host
/// against the cluster's best host (per Winner) and migrate when the
/// improvement exceeds the configured factor.
pub fn run_migration_manager(
    ctx: &mut Ctx,
    naming_host: HostId,
    system_manager: Ior,
    cfg: MigrationConfig,
    stats: Shared<MigrationStats>,
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    let ns = NamingClient::root(naming_host);
    let winner = SystemManagerClient::from_ior(system_manager);
    loop {
        ctx.sleep(cfg.period)?;
        let Ok(members) = ns.group_members(&mut orb, ctx, &cfg.group)? else {
            continue;
        };
        let Ok(snapshot) = winner.snapshot(&mut orb, ctx)? else {
            continue;
        };
        let score_of = |host: u32| -> Option<f64> {
            snapshot
                .iter()
                .find(|s| s.host == host && s.alive)
                .map(|s| s.score)
        };
        let best = snapshot
            .iter()
            .filter(|s| s.alive)
            .max_by(|a, b| a.score.total_cmp(&b.score));
        let Some(best) = best else { continue };
        for member in members {
            let Some(current_score) = score_of(member.host.0) else {
                continue;
            };
            if best.host != member.host.0 && best.score > current_score * cfg.improvement_factor {
                let r = migrate_member(
                    &mut orb,
                    ctx,
                    &MemberMove {
                        naming_host,
                        group: &cfg.group,
                        member: &member,
                        dest_host: HostId(best.host),
                        service_type: &cfg.service_type,
                        checkpoint_op: &cfg.checkpoint_op,
                        restore_op: &cfg.restore_op,
                    },
                )?;
                let mut s = stats.lock();
                match r {
                    Ok(_) => s.migrations += 1,
                    Err(_) => s.failures += 1,
                }
                // At most one migration per round: let load reports settle.
                break;
            }
        }
    }
}
