//! The naming context servant.
//!
//! One naming server process serves one [`NamingContext`]: a flat map
//! from a single name component to an object or a group, so a name of
//! more than one component is `NotFound`. Besides the standard
//! `bind`/`rebind`/`resolve`, it supports **group bindings**: several
//! object references registered under one name. `resolve` on a group
//! picks one member — using the Winner system manager's load information
//! when configured ([`LbMode::Winner`]), or round-robin otherwise
//! ([`LbMode::Plain`]). This is the paper's §2 design: load distribution
//! inside the naming service, fully transparent to clients, falling back
//! to plain behaviour (and thus "at least the same results as the
//! unmodified naming service") when Winner is unavailable.

use std::collections::BTreeMap;

use orb::{CallCtx, Exception, Ior, ObjectKey, SystemException};
use simnet::{HostId, Port};
use winner::SystemManagerClient;

use crate::name::{Name, NameComponent};
use crate::protocol::CosNaming::LoadBalancedContext::EmptyGroup;
use crate::protocol::CosNaming::{self, AlreadyBound, InvalidName, NotFound, NotFoundReason};

/// How group resolution picks a member.
#[derive(Clone, Debug)]
pub enum LbMode {
    /// Load-oblivious round-robin — the behaviour of an unmodified naming
    /// service with multiple registrations.
    Plain,
    /// Ask the Winner system manager for the best host among the group
    /// members' hosts; fall back to round-robin if Winner is unreachable.
    Winner {
        /// Reference to `Winner::SystemManager`.
        system_manager: Ior,
    },
}

/// A binding in the context.
#[derive(Clone, Debug)]
enum Entry {
    /// A plain object binding.
    Object(Ior),
    /// A service group: multiple replicas under one name. `revision`
    /// counts membership changes (bind/unbind), so a coordinator can
    /// prove to replicas that its view of the group is current.
    Group {
        members: Vec<Ior>,
        rr: usize,
        revision: u64,
    },
}

/// The naming context servant.
pub struct NamingContext {
    entries: BTreeMap<NameComponent, Entry>,
    mode: LbMode,
}

/// `NotFound(missing_node)` for `name`.
fn missing(name: Name) -> Exception {
    NotFound {
        why: NotFoundReason::missing_node,
        rest_of_name: name,
    }
    .raise()
}

/// The order round-robin walks a group in: by host, not by registration
/// (see `pick_member`).
fn walk_key(m: &Ior) -> (HostId, Port, ObjectKey) {
    (m.host, m.port, m.key)
}

/// Where `member` falls in that walk.
fn rank(members: &[Ior], member: &Ior) -> usize {
    members
        .iter()
        .filter(|m| walk_key(m) < walk_key(member))
        .count()
}

/// The one component of a flat name: empty is `InvalidName`, more than
/// one component is `NotFound` (there are no child contexts to follow).
fn component(name: Name) -> Result<NameComponent, Exception> {
    match <[NameComponent; 1]>::try_from(name.0) {
        Ok([comp]) => Ok(comp),
        Err(comps) if comps.is_empty() => Err(InvalidName {}.raise()),
        Err(comps) => Err(missing(Name(comps))),
    }
}

impl NamingContext {
    /// An empty context.
    pub fn new(mode: LbMode) -> Self {
        NamingContext {
            entries: BTreeMap::new(),
            mode,
        }
    }

    /// The heart of the paper: pick a group member, preferring the
    /// best-performing host as reported by Winner.
    fn pick_member(
        &mut self,
        call: &mut CallCtx<'_>,
        members: Vec<Ior>,
        name: &NameComponent,
    ) -> Result<Ior, Exception> {
        call.orb
            .obs()
            .observe("naming.group_size", members.len() as u64);
        if members.is_empty() {
            return Err(EmptyGroup {}.raise());
        }
        if let LbMode::Winner { system_manager } = &self.mode {
            let mut hosts: Vec<u32> = members.iter().map(|m| m.host.0).collect();
            hosts.sort_unstable();
            hosts.dedup();
            let client = SystemManagerClient::from_ior(system_manager.clone());
            match client.select(call.orb, call.ctx, &hosts) {
                Ok(Ok(Some(host))) => {
                    if let Some(m) = members.iter().find(|m| m.host.0 == host) {
                        call.orb.obs().counter_add("naming.winner_picks", 1);
                        return Ok(m.clone());
                    }
                }
                Ok(Ok(None)) | Ok(Err(_)) => {
                    // No fresh load data or Winner down: fall through to
                    // round-robin — never worse than the plain service.
                }
                Err(killed) => return Err(SystemException::comm_failure(killed.to_string()).into()),
            }
        }
        // Plain mode, or Winner fallback: round-robin over members in
        // host order. The order is sorted (not registration order) so the
        // plain service is genuinely load-oblivious — registration order
        // can correlate with load, which would smuggle load-awareness
        // into the baseline.
        call.orb.obs().counter_add("naming.fallback_picks", 1);
        let Some(Entry::Group { members, rr, .. }) = self.entries.get_mut(name) else {
            return Err(SystemException::internal("group entry vanished mid-dispatch").into());
        };
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| walk_key(&members[i]));
        let pick = members[order[*rr % members.len()]].clone();
        *rr += 1;
        Ok(pick)
    }

    fn resolve_name(&mut self, call: &mut CallCtx<'_>, name: Name) -> Result<Ior, Exception> {
        let comp = component(name)?;
        // Snapshot the member list: the Winner call nests a request.
        let members = match self.entries.get(&comp) {
            None => return Err(missing(Name(vec![comp]))),
            Some(Entry::Object(ior)) => return Ok(ior.clone()),
            Some(Entry::Group { members, .. }) => members.clone(),
        };
        self.pick_member(call, members, &comp)
    }

    /// The members and membership revision of the group bound at `name`.
    fn group(&self, name: Name) -> Result<(u64, Vec<Ior>), Exception> {
        let comp = component(name)?;
        match self.entries.get(&comp) {
            Some(Entry::Group {
                members, revision, ..
            }) => Ok((*revision, members.clone())),
            _ => Err(missing(Name(vec![comp]))),
        }
    }
}

impl CosNaming::NamingContext for NamingContext {
    fn bind(&mut self, _call: &mut CallCtx<'_>, n: Name, obj: Ior) -> Result<(), Exception> {
        let comp = component(n)?;
        if self.entries.contains_key(&comp) {
            return Err(AlreadyBound {}.raise());
        }
        self.entries.insert(comp, Entry::Object(obj));
        Ok(())
    }

    fn rebind(&mut self, _call: &mut CallCtx<'_>, n: Name, obj: Ior) -> Result<(), Exception> {
        self.entries.insert(component(n)?, Entry::Object(obj));
        Ok(())
    }

    fn resolve(&mut self, call: &mut CallCtx<'_>, n: Name) -> Result<Ior, Exception> {
        let start = call.ctx.now();
        let resolved = self.resolve_name(call, n);
        let o = call.orb.obs();
        o.counter_add("naming.resolves", 1);
        o.observe("naming.resolve_ns", call.ctx.now().since(start).as_nanos());
        resolved
    }

    fn bind_group_member(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
        member: Ior,
    ) -> Result<(), Exception> {
        let comp = component(group)?;
        match self.entries.get_mut(&comp) {
            None => {
                self.entries.insert(
                    comp,
                    Entry::Group {
                        members: vec![member],
                        rr: 0,
                        revision: 1,
                    },
                );
            }
            Some(Entry::Group {
                members,
                rr,
                revision,
            }) => {
                if members.contains(&member) {
                    return Err(AlreadyBound {}.raise());
                }
                // Membership changes keep the round-robin walk on the
                // member it would pick next: one sorted before the cursor
                // moves the cursor on a place (an unbind, back a place).
                if !members.is_empty() {
                    let cursor = *rr % members.len();
                    *rr = cursor + usize::from(rank(members, &member) < cursor);
                }
                members.push(member);
                *revision += 1;
            }
            Some(Entry::Object(_)) => return Err(AlreadyBound {}.raise()),
        }
        Ok(())
    }

    fn unbind_group_member(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
        member: Ior,
    ) -> Result<(), Exception> {
        let comp = component(group)?;
        match self.entries.get_mut(&comp) {
            Some(Entry::Group {
                members,
                rr,
                revision,
            }) => {
                let Some(i) = members.iter().position(|m| m == &member) else {
                    return Err(missing(Name(vec![comp])));
                };
                let cursor = *rr % members.len();
                *rr = cursor - usize::from(rank(members, &member) < cursor);
                members.remove(i);
                *revision += 1;
                Ok(())
            }
            _ => Err(missing(Name(vec![comp]))),
        }
    }

    fn group_members(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
    ) -> Result<Vec<Ior>, Exception> {
        Ok(self.group(group)?.1)
    }

    fn group_view(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
    ) -> Result<(u64, Vec<Ior>), Exception> {
        self.group(group)
    }
}
