//! The naming context servant and the shared naming tree.
//!
//! One naming server process holds one [`NamingTree`]; every context
//! (root and children created by `bind_new_context`) is a servant sharing
//! that tree. Besides the standard COS Naming operations, a context
//! supports **group bindings**: several object references registered under
//! one name. `resolve` on a group picks one member — using the Winner
//! system manager's load information when configured ([`LbMode::Winner`]),
//! or round-robin otherwise ([`LbMode::Plain`]). This is the paper's §2
//! design: load distribution inside the naming service, fully transparent
//! to clients, falling back to plain behaviour (and thus "at least the
//! same results as the unmodified naming service") when Winner is
//! unavailable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use orb::{CallCtx, Exception, Ior, ObjectKey, SystemException};
use winner::SystemManagerClient;

use crate::iterator::BindingIterator;
use crate::name::{Name, NameComponent};
use crate::protocol::CosNaming::{self, BindingIteratorSkeleton, NamingContextSkeleton};
use crate::protocol::{
    AlreadyBound, Binding, BindingType, EmptyGroup, InvalidName, NotEmpty, NotFound,
    NotFoundReason, BINDING_ITERATOR_TYPE, NAMING_CONTEXT_TYPE,
};

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

/// A binding in a context.
#[derive(Clone, Debug)]
enum Entry {
    /// A plain object binding.
    Object(Ior),
    /// A child context. `node` is set for contexts local to this server
    /// (traversable); foreign contexts are stored but cannot be traversed.
    Context { node: Option<u64>, ior: Ior },
    /// A service group: multiple replicas under one name. `revision`
    /// counts membership changes (bind/unbind), so a coordinator can
    /// prove to replicas that its view of the group is current.
    Group {
        members: Vec<Ior>,
        rr: usize,
        revision: u64,
    },
}

struct Node {
    entries: BTreeMap<NameComponent, Entry>,
}

/// The naming tree shared by all context servants of one server process.
pub struct NamingTree {
    nodes: BTreeMap<u64, Node>,
    /// Local context object keys → tree nodes (for `bind_context`).
    by_key: BTreeMap<ObjectKey, u64>,
    next_node: u64,
    /// Resolution statistics (read by tests and the demo).
    pub resolves: u64,
    /// Group resolves that used Winner successfully.
    pub winner_picks: u64,
    /// Group resolves that fell back to round-robin.
    pub fallback_picks: u64,
}

impl NamingTree {
    /// A tree with a root node (id 0).
    pub fn new() -> Rc<RefCell<NamingTree>> {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            0,
            Node {
                entries: BTreeMap::new(),
            },
        );
        Rc::new(RefCell::new(NamingTree {
            nodes,
            by_key: BTreeMap::new(),
            next_node: 1,
            resolves: 0,
            winner_picks: 0,
            fallback_picks: 0,
        }))
    }
}

/// A naming context servant: a view onto one node of the shared tree.
pub struct NamingContext {
    tree: Rc<RefCell<NamingTree>>,
    node: u64,
    mode: LbMode,
}

/// The servant's tree node is gone: the context was destroyed while a
/// client still held its reference. COS Naming surfaces this as
/// `OBJECT_NOT_EXIST`, not a server crash.
fn dead_context() -> Exception {
    SystemException::object_not_exist("naming context no longer exists").into()
}

impl NamingContext {
    /// The root context of a tree.
    pub fn root(tree: Rc<RefCell<NamingTree>>, mode: LbMode) -> Self {
        NamingContext {
            tree,
            node: 0,
            mode,
        }
    }

    fn child(&self, node: u64) -> Self {
        NamingContext {
            tree: self.tree.clone(),
            node,
            mode: self.mode.clone(),
        }
    }

    /// Follow all but the last component from this node through local
    /// child contexts; returns the parent node and the final component.
    fn walk(&self, name: &Name) -> Result<(u64, NameComponent), Exception> {
        if name.is_empty() {
            return Err(InvalidName.raise());
        }
        let tree = self.tree.borrow();
        let mut node = self.node;
        let comps = &name.0;
        for (i, comp) in comps[..comps.len() - 1].iter().enumerate() {
            let n = tree.nodes.get(&node).ok_or_else(dead_context)?;
            match n.entries.get(comp) {
                Some(Entry::Context {
                    node: Some(child), ..
                }) => node = *child,
                Some(Entry::Context { node: None, .. }) | Some(_) => {
                    return Err(NotFound {
                        why: NotFoundReason::NotContext,
                        rest_of_name: Name(comps[i..].to_vec()),
                    }
                    .raise())
                }
                None => {
                    return Err(NotFound {
                        why: NotFoundReason::MissingNode,
                        rest_of_name: Name(comps[i..].to_vec()),
                    }
                    .raise())
                }
            }
        }
        Ok((node, comps[comps.len() - 1].clone()))
    }

    fn bind_entry(&self, name: &Name, entry: Entry) -> Result<(), Exception> {
        let (node, last) = self.walk(name)?;
        let mut tree = self.tree.borrow_mut();
        let entries = &mut tree.nodes.get_mut(&node).ok_or_else(dead_context)?.entries;
        if entries.contains_key(&last) {
            return Err(AlreadyBound.raise());
        }
        entries.insert(last, entry);
        Ok(())
    }

    fn rebind_entry(&self, name: &Name, entry: Entry) -> Result<(), Exception> {
        let (node, last) = self.walk(name)?;
        let mut tree = self.tree.borrow_mut();
        let entries = &mut tree.nodes.get_mut(&node).ok_or_else(dead_context)?.entries;
        match entries.get(&last) {
            Some(Entry::Context { .. }) => Err(NotFound {
                why: NotFoundReason::NotObject,
                rest_of_name: Name(vec![last]),
            }
            .raise()),
            _ => {
                entries.insert(last, entry);
                Ok(())
            }
        }
    }

    /// The heart of the paper: pick a group member, preferring the
    /// best-performing host as reported by Winner.
    fn pick_member(
        &self,
        call: &mut CallCtx<'_>,
        name: &NameComponent,
        node: u64,
    ) -> Result<Ior, Exception> {
        // Snapshot the member list without holding the borrow across the
        // nested Winner call.
        let members: Vec<Ior> = {
            let tree = self.tree.borrow();
            match tree.nodes.get(&node).and_then(|n| n.entries.get(name)) {
                Some(Entry::Group { members, .. }) => members.clone(),
                // The caller just saw a group here; anything else means the
                // tree changed under us — an internal bug, not a panic.
                _ => {
                    return Err(
                        SystemException::internal("group entry vanished mid-dispatch").into(),
                    )
                }
            }
        };
        let obs = call.orb.obs().cloned();
        if let Some(o) = &obs {
            o.observe("naming.group_size", members.len() as u64);
        }
        if members.is_empty() {
            return Err(EmptyGroup.raise());
        }
        if let LbMode::Winner { system_manager } = &self.mode {
            let mut hosts: Vec<u32> = members.iter().map(|m| m.host.0).collect();
            hosts.sort_unstable();
            hosts.dedup();
            let client = SystemManagerClient::from_ior(system_manager.clone());
            match client.select(call.orb, call.ctx, &hosts) {
                Ok(Ok(Some(host))) => {
                    if let Some(m) = members.iter().find(|m| m.host.0 == host) {
                        self.tree.borrow_mut().winner_picks += 1;
                        if let Some(o) = &obs {
                            o.counter_add("naming.winner_picks", 1);
                        }
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
        if let Some(o) = &obs {
            o.counter_add("naming.fallback_picks", 1);
        }
        let mut tree = self.tree.borrow_mut();
        tree.fallback_picks += 1;
        let Some(Entry::Group { members, rr, .. }) = tree
            .nodes
            .get_mut(&node)
            .ok_or_else(dead_context)?
            .entries
            .get_mut(name)
        else {
            return Err(SystemException::internal("group entry vanished mid-dispatch").into());
        };
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| (members[i].host, members[i].port, members[i].key));
        let pick = members[order[*rr % members.len()]].clone();
        *rr += 1;
        Ok(pick)
    }

    fn resolve_name(&self, call: &mut CallCtx<'_>, name: &Name) -> Result<Ior, Exception> {
        let (node, last) = self.walk(name)?;
        self.tree.borrow_mut().resolves += 1;
        {
            let tree = self.tree.borrow();
            match tree
                .nodes
                .get(&node)
                .ok_or_else(dead_context)?
                .entries
                .get(&last)
            {
                None => {
                    return Err(NotFound {
                        why: NotFoundReason::MissingNode,
                        rest_of_name: Name(vec![last]),
                    }
                    .raise())
                }
                Some(Entry::Object(ior)) => return Ok(ior.clone()),
                Some(Entry::Context { ior, .. }) => return Ok(ior.clone()),
                Some(Entry::Group { .. }) => {}
            }
        }
        self.pick_member(call, &last, node)
    }

    /// The members and membership revision of the group bound at `name`.
    fn group(&self, name: &Name) -> Result<(u64, Vec<Ior>), Exception> {
        let (node, last) = self.walk(name)?;
        let tree = self.tree.borrow();
        match tree
            .nodes
            .get(&node)
            .ok_or_else(dead_context)?
            .entries
            .get(&last)
        {
            Some(Entry::Group {
                members, revision, ..
            }) => Ok((*revision, members.clone())),
            _ => Err(NotFound {
                why: NotFoundReason::MissingNode,
                rest_of_name: Name(vec![last]),
            }
            .raise()),
        }
    }
}

impl CosNaming::NamingContext for NamingContext {
    fn bind(&mut self, _call: &mut CallCtx<'_>, n: Name, obj: Ior) -> Result<(), Exception> {
        self.bind_entry(&n, Entry::Object(obj))
    }

    fn rebind(&mut self, _call: &mut CallCtx<'_>, n: Name, obj: Ior) -> Result<(), Exception> {
        self.rebind_entry(&n, Entry::Object(obj))
    }

    fn bind_context(&mut self, _call: &mut CallCtx<'_>, n: Name, nc: Ior) -> Result<(), Exception> {
        let node = self.tree.borrow().by_key.get(&nc.key).copied();
        self.bind_entry(&n, Entry::Context { node, ior: nc })
    }

    fn resolve(&mut self, call: &mut CallCtx<'_>, n: Name) -> Result<Ior, Exception> {
        let start = call.ctx.now();
        let resolved = self.resolve_name(call, &n);
        if let Some(o) = call.orb.obs().cloned() {
            o.counter_add("naming.resolves", 1);
            o.observe("naming.resolve_ns", call.ctx.now().since(start).as_nanos());
        }
        resolved
    }

    fn unbind(&mut self, _call: &mut CallCtx<'_>, n: Name) -> Result<(), Exception> {
        let (node, last) = self.walk(&n)?;
        let mut tree = self.tree.borrow_mut();
        let entries = &mut tree.nodes.get_mut(&node).ok_or_else(dead_context)?.entries;
        if entries.remove(&last).is_none() {
            return Err(NotFound {
                why: NotFoundReason::MissingNode,
                rest_of_name: Name(vec![last]),
            }
            .raise());
        }
        Ok(())
    }

    fn bind_new_context(&mut self, call: &mut CallCtx<'_>, n: Name) -> Result<Ior, Exception> {
        let (node, last) = self.walk(&n)?;
        // Create the child node.
        let child_node = {
            let mut tree = self.tree.borrow_mut();
            if tree
                .nodes
                .get(&node)
                .ok_or_else(dead_context)?
                .entries
                .contains_key(&last)
            {
                return Err(AlreadyBound.raise());
            }
            let id = tree.next_node;
            tree.next_node += 1;
            tree.nodes.insert(
                id,
                Node {
                    entries: BTreeMap::new(),
                },
            );
            id
        };
        // Activate a servant for it and bind.
        let servant = Rc::new(RefCell::new(NamingContextSkeleton(self.child(child_node))));
        let key = call.poa.activate(NAMING_CONTEXT_TYPE, servant);
        let ior = call.orb.ior(NAMING_CONTEXT_TYPE, key);
        {
            let mut tree = self.tree.borrow_mut();
            tree.by_key.insert(key, child_node);
            tree.nodes
                .get_mut(&node)
                .ok_or_else(dead_context)?
                .entries
                .insert(
                    last,
                    Entry::Context {
                        node: Some(child_node),
                        ior: ior.clone(),
                    },
                );
        }
        Ok(ior)
    }

    fn destroy(&mut self, call: &mut CallCtx<'_>) -> Result<(), Exception> {
        {
            let tree = self.tree.borrow();
            let node = tree.nodes.get(&self.node).ok_or_else(dead_context)?;
            if !node.entries.is_empty() {
                return Err(NotEmpty.raise());
            }
        }
        let mut tree = self.tree.borrow_mut();
        tree.nodes.remove(&self.node);
        tree.by_key.remove(&call.key);
        call.poa.deactivate(call.key);
        Ok(())
    }

    fn list(
        &mut self,
        call: &mut CallCtx<'_>,
        how_many: u32,
    ) -> Result<(Vec<Binding>, Option<Ior>), Exception> {
        let mut bindings: Vec<Binding> = {
            let tree = self.tree.borrow();
            tree.nodes
                .get(&self.node)
                .ok_or_else(dead_context)?
                .entries
                .iter()
                .map(|(comp, entry)| Binding {
                    name: Name(vec![comp.clone()]),
                    binding_type: match entry {
                        Entry::Context { .. } => BindingType::ncontext,
                        _ => BindingType::nobject,
                    },
                })
                .collect()
        };
        bindings.sort_by_key(|a| a.name.stringify());
        let rest = bindings.split_off((how_many as usize).min(bindings.len()));
        let iterator = if rest.is_empty() {
            None
        } else {
            let servant = Rc::new(RefCell::new(BindingIteratorSkeleton(BindingIterator::new(
                rest,
            ))));
            let key = call.poa.activate(BINDING_ITERATOR_TYPE, servant);
            Some(call.orb.ior(BINDING_ITERATOR_TYPE, key))
        };
        Ok((bindings, iterator))
    }

    fn bind_group_member(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
        member: Ior,
    ) -> Result<(), Exception> {
        let (node, last) = self.walk(&group)?;
        let mut tree = self.tree.borrow_mut();
        let entries = &mut tree.nodes.get_mut(&node).ok_or_else(dead_context)?.entries;
        match entries.get_mut(&last) {
            None => {
                entries.insert(
                    last,
                    Entry::Group {
                        members: vec![member],
                        rr: 0,
                        revision: 1,
                    },
                );
            }
            Some(Entry::Group {
                members, revision, ..
            }) => {
                if members.contains(&member) {
                    return Err(AlreadyBound.raise());
                }
                members.push(member);
                *revision += 1;
            }
            Some(_) => return Err(AlreadyBound.raise()),
        }
        Ok(())
    }

    fn unbind_group_member(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
        member: Ior,
    ) -> Result<(), Exception> {
        let (node, last) = self.walk(&group)?;
        let mut tree = self.tree.borrow_mut();
        let entries = &mut tree.nodes.get_mut(&node).ok_or_else(dead_context)?.entries;
        match entries.get_mut(&last) {
            Some(Entry::Group {
                members, revision, ..
            }) => {
                let before = members.len();
                members.retain(|m| m != &member);
                if members.len() == before {
                    return Err(NotFound {
                        why: NotFoundReason::MissingNode,
                        rest_of_name: Name(vec![last]),
                    }
                    .raise());
                }
                *revision += 1;
                Ok(())
            }
            _ => Err(NotFound {
                why: NotFoundReason::MissingNode,
                rest_of_name: Name(vec![last]),
            }
            .raise()),
        }
    }

    fn group_members(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
    ) -> Result<Vec<Ior>, Exception> {
        Ok(self.group(&group)?.1)
    }

    fn group_view(
        &mut self,
        _call: &mut CallCtx<'_>,
        group: Name,
    ) -> Result<(u64, Vec<Ior>), Exception> {
        self.group(&group)
    }
}
