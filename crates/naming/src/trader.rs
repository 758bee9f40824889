//! A trader service — the §2 alternative the paper argues **against**.
//!
//! "Implementation of an explicit service (e.g. a 'trader') which returns
//! an object reference for the requested service on an available host
//! (centralized load distribution strategy) or references for all
//! available service objects. In the latter case, the client has to
//! evaluate the load information for all of the returned references and
//! has to make a selection by itself (decentralized load distribution
//! strategy). … The drawback … is that the source code of clients has to
//! be changed."
//!
//! This module implements exactly that baseline so the trade-off can be
//! measured: offers are exported per service type; `query` returns all of
//! them; [`select_best_offer`] is the decentralized client-side selection
//! the paper criticizes — note how much machinery leaks into the client
//! compared with a plain `resolve` on the load-distributing naming
//! service.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use orb::{CallCtx, Exception, Ior, Orb, Poa};
use simnet::{Ctx, SimResult};
use winner::{performance_score_of, SystemManagerClient};

use crate::protocol::CosTrading::{self, LookupSkeleton, LookupStub};

/// Repository id of the trader lookup interface.
pub const TRADER_TYPE: &str = LookupStub::REPO_ID;

/// The trader servant: a flat multimap from service type to offers.
#[derive(Default)]
pub struct Trader {
    offers: BTreeMap<String, Vec<Ior>>,
    /// Queries served (for tests).
    pub queries: u64,
}

impl Trader {
    /// An empty trader.
    pub fn new() -> Self {
        Trader::default()
    }
}

impl CosTrading::Lookup for Trader {
    fn export(
        &mut self,
        _call: &mut CallCtx<'_>,
        service_type: String,
        offer: Ior,
    ) -> Result<(), Exception> {
        let offers = self.offers.entry(service_type).or_default();
        if !offers.contains(&offer) {
            offers.push(offer);
        }
        Ok(())
    }

    fn withdraw(
        &mut self,
        _call: &mut CallCtx<'_>,
        service_type: String,
        offer: Ior,
    ) -> Result<(), Exception> {
        if let Some(offers) = self.offers.get_mut(&service_type) {
            offers.retain(|o| o != &offer);
        }
        Ok(())
    }

    fn query(
        &mut self,
        _call: &mut CallCtx<'_>,
        service_type: String,
    ) -> Result<Vec<Ior>, Exception> {
        self.queries += 1;
        Ok(self.offers.get(&service_type).cloned().unwrap_or_default())
    }
}

/// The decentralized client-side selection of §2: fetch Winner's whole
/// load snapshot and score every offer's host locally. This is the code
/// every client would have to carry — the paper's argument for putting the
/// logic into the naming service instead.
pub fn select_best_offer(
    orb: &mut Orb,
    ctx: &mut Ctx,
    offers: &[Ior],
    system_manager: &SystemManagerClient,
) -> SimResult<Result<Option<Ior>, Exception>> {
    if offers.is_empty() {
        return Ok(Ok(None));
    }
    let snapshot = match system_manager.snapshot(orb, ctx)? {
        Ok(s) => s,
        // Winner down: first offer (the client must handle this, too).
        Err(_) => return Ok(Ok(Some(offers[0].clone()))),
    };
    let mut best: Option<(&Ior, f64)> = None;
    for offer in offers {
        let Some(status) = snapshot.iter().find(|h| h.host == offer.host.0 && h.alive) else {
            continue;
        };
        let score = performance_score_of(status.speed, status.load_avg + status.reservations);
        match &best {
            Some((_, b)) if *b >= score => {}
            _ => best = Some((offer, score)),
        }
    }
    Ok(Ok(best
        .map(|(o, _)| o.clone())
        .or_else(|| Some(offers[0].clone()))))
}

/// The body of a trader server process: activate, publish, serve.
pub fn run_trader(ctx: &mut Ctx, publish: impl FnOnce(Ior)) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.listen(ctx)?;
    let poa = Poa::new();
    let trader = Rc::new(RefCell::new(LookupSkeleton(Trader::new())));
    let key = poa.activate(TRADER_TYPE, trader);
    publish(orb.ior(TRADER_TYPE, key));
    orb.serve_forever(ctx, &poa)
}
