//! The server half of the FT protocol: two GIOP service contexts that let
//! the checkpoint and the restore ride the application's own call, as
//! FT-CORBA's `FT_REQUEST` context rides a request.
//!
//! * [`CHECKPOINT_CONTEXT_ID`] on a request asks for the servant's state
//!   after the call; the reply carries it back under the same id.
//! * [`RESTORE_CONTEXT_ID`] on a request carries a state to restore
//!   before the call is dispatched.
//!
//! An [`FtServant`] wraps a servant that answers `get_checkpoint` and
//! `restore_checkpoint` (`idl/optim.idl`'s `Worker`) and turns the
//! contexts into those two local dispatches: the restore context's data is
//! `restore_checkpoint`'s argument body, the reply context's data is
//! `get_checkpoint`'s result body. Factories and `optim`'s worker server
//! wrap what they activate.

use std::cell::RefCell;
use std::rc::Rc;

use orb::{CallCtx, Completion, Exception, Servant, ServiceContext, SysKind, SystemException};

/// Service-context id asking for the state after the call, and under
/// which the reply carries it. Spells `LDFC` ("LD/FT checkpoint").
pub const CHECKPOINT_CONTEXT_ID: u32 = 0x4C44_4643;
/// Service-context id carrying a state to restore before the call.
/// Spells `LDFR` ("LD/FT restore").
pub const RESTORE_CONTEXT_ID: u32 = 0x4C44_4652;

/// The checkpoint convention, invoked by name, locally.
const CHECKPOINT_OP: &str = "get_checkpoint";
const RESTORE_OP: &str = "restore_checkpoint";

/// A checkpointable servant behind the FT protocol's two contexts.
pub struct FtServant(Rc<RefCell<dyn Servant>>);

impl FtServant {
    /// `inner`, wrapped, ready to activate.
    pub fn wrap(inner: Rc<RefCell<dyn Servant>>) -> Rc<RefCell<dyn Servant>> {
        Rc::new(RefCell::new(FtServant(inner)))
    }
}

/// The request's FT contexts: the state to restore, and whether the state
/// is asked for. Each may appear once; a second is `BAD_PARAM`.
fn ft_contexts(contexts: &[ServiceContext]) -> Result<(Option<&[u8]>, bool), Exception> {
    let (mut restore, mut checkpoint) = (None, false);
    for sc in contexts {
        let duplicate = match sc.id {
            RESTORE_CONTEXT_ID => restore.replace(sc.data.as_slice()).is_some(),
            CHECKPOINT_CONTEXT_ID => std::mem::replace(&mut checkpoint, true),
            _ => false,
        };
        if duplicate {
            let twice = "an FT service context appears twice";
            return Err(SystemException::new(SysKind::BadParam, Completion::No, twice).into());
        }
    }
    Ok((restore, checkpoint))
}

impl Servant for FtServant {
    /// Restore if the request carries a state, dispatch, and, if asked,
    /// append the state after the call to the reply. A refused restore is
    /// the call's answer, and the call is not dispatched. A refused
    /// `get_checkpoint` sends the reply back without the state, which the
    /// proxy takes as a failed attempt.
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        let (restore, checkpoint) = ft_contexts(call.contexts)?;
        let mut inner = self.0.borrow_mut();
        if let Some(state) = restore {
            let o = call.orb.obs().clone();
            o.begin(call.ctx.now(), "ft.restore");
            let restored = inner.dispatch(call, RESTORE_OP, state);
            o.finish(call.ctx.now(), restored.is_ok());
            restored?;
        }
        let reply = inner.dispatch(call, op, args)?;
        if checkpoint {
            if let Ok(state) = inner.dispatch(call, CHECKPOINT_OP, &[]) {
                call.reply_contexts.push(ServiceContext {
                    id: CHECKPOINT_CONTEXT_ID,
                    data: state,
                });
            }
        }
        Ok(reply)
    }
}
