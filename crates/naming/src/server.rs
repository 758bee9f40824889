//! The naming server process body.

use std::cell::RefCell;
use std::rc::Rc;

use obs::{Obs, ProcessObs};
use orb::{Orb, Poa};
use simnet::{Ctx, SimResult};

use crate::context::{LbMode, NamingContext, NamingTree};
use crate::protocol::CosNaming::NamingContextSkeleton;
use crate::protocol::{NAMING_CONTEXT_TYPE, NAMING_PORT, ROOT_CONTEXT_KEY};

/// Run a naming service on the current process: binds the conventional
/// port 2809, activates the root context (object key 1, so
/// [`initial_naming_ior`](crate::client::initial_naming_ior) works), and
/// serves forever.
///
/// `mode` selects the paper's load-distributing behaviour
/// ([`LbMode::Winner`]) or the plain baseline ([`LbMode::Plain`]).
///
/// If port 2809 is already bound on this host (another naming server is
/// running), the process reports it and exits instead of serving. Serve
/// spans and resolve metrics are recorded into `obs` when present.
pub fn run_naming_service_obs(ctx: &mut Ctx, mode: LbMode, obs: Option<Obs>) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(ProcessObs::from_sink(obs, ctx));
    let Some(port) = orb.listen_on(ctx, NAMING_PORT)? else {
        eprintln!(
            "naming: port {NAMING_PORT:?} already in use on host {:?}; not serving",
            ctx.host()
        );
        return Ok(());
    };
    debug_assert_eq!(port, NAMING_PORT);
    let poa = Poa::new();
    let tree = NamingTree::new();
    let root = Rc::new(RefCell::new(NamingContextSkeleton(NamingContext::root(
        tree, mode,
    ))));
    let key = poa.activate(NAMING_CONTEXT_TYPE, root);
    debug_assert_eq!(key, ROOT_CONTEXT_KEY);
    orb.serve_forever(ctx, &poa)
}
