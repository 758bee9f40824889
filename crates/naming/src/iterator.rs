//! The `BindingIterator` servant: pages through the remainder of a `list`
//! result.

use std::collections::VecDeque;

use orb::{CallCtx, Exception};

use crate::name::Name;
use crate::protocol::{Binding, BindingType, CosNaming};

/// Iterator over bindings not returned directly by `list`.
pub struct BindingIterator {
    items: VecDeque<Binding>,
}

impl BindingIterator {
    /// Wrap the remaining bindings.
    pub fn new(items: Vec<Binding>) -> Self {
        BindingIterator {
            items: items.into(),
        }
    }
}

fn placeholder() -> Binding {
    Binding {
        name: Name::default(),
        binding_type: BindingType::nobject,
    }
}

impl CosNaming::BindingIterator for BindingIterator {
    fn next_one(&mut self, _call: &mut CallCtx<'_>) -> Result<(bool, Binding), Exception> {
        Ok(match self.items.pop_front() {
            Some(b) => (true, b),
            None => (false, placeholder()),
        })
    }

    fn next_n(
        &mut self,
        _call: &mut CallCtx<'_>,
        how_many: u32,
    ) -> Result<(bool, Vec<Binding>), Exception> {
        let n = (how_many as usize).min(self.items.len());
        let batch: Vec<Binding> = self.items.drain(..n).collect();
        Ok((!batch.is_empty(), batch))
    }

    fn destroy(&mut self, call: &mut CallCtx<'_>) -> Result<(), Exception> {
        call.poa.deactivate(call.key);
        Ok(())
    }
}
