//! Callback registry: binds task types to user implementations.
//!
//! The third of the user's "three basic steps": "the implementations of the
//! tasks are connected to the task graph by registering the corresponding
//! callbacks". A callback borrows the task's inputs (one payload per input
//! slot, in slot order) and must return exactly one payload per output slot.

use std::sync::Arc;

use crate::hash::IdMap;
use crate::ids::{CallbackId, TaskId};
use crate::payload::Payload;

/// A task implementation.
///
/// Mirrors the paper's signature
/// `int task(vector<Payload>& in, vector<Payload>& out, TaskId id)`:
/// borrowed inputs in slot order, the executing task's id (so one callback
/// can serve many tasks, parameterized by id), and the outputs as the return
/// value. Callbacks must be idempotent and hold no persistent state — "the
/// task graph assumes idempotent tasks with no persistent state".
pub type Callback = Arc<dyn Fn(&[Payload], TaskId) -> Vec<Payload> + Send + Sync>;

/// A [`CallbackId`] was registered twice. Accidental double registration
/// used to silently shadow the earlier binding — a hard bug to find once
/// a run produces wrong bytes — so [`Registry::register`] now rejects it.
/// Replace a binding on purpose with [`Registry::rebind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateCallback(pub CallbackId);

impl std::fmt::Display for DuplicateCallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "duplicate registration of callback {}; use rebind() to replace a binding",
            self.0
        )
    }
}

impl std::error::Error for DuplicateCallback {}

/// Mapping from [`CallbackId`] to [`Callback`]. Cloneable and cheap to share
/// across shards/threads.
#[derive(Clone, Default)]
pub struct Registry {
    callbacks: IdMap<CallbackId, Callback>,
    arities: IdMap<CallbackId, (Option<usize>, Option<usize>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `cb` to the implementation `f`.
    ///
    /// # Panics
    /// If `cb` is already bound (see [`DuplicateCallback`]); use
    /// [`try_register`](Self::try_register) to handle the collision, or
    /// [`rebind`](Self::rebind) to replace a binding deliberately.
    pub fn register<F>(&mut self, cb: CallbackId, f: F) -> &mut Self
    where
        F: Fn(&[Payload], TaskId) -> Vec<Payload> + Send + Sync + 'static,
    {
        self.register_arc(cb, Arc::new(f))
    }

    /// Bind `cb` to `f`, or report the collision if `cb` is already bound.
    pub fn try_register<F>(
        &mut self,
        cb: CallbackId,
        f: F,
    ) -> std::result::Result<&mut Self, DuplicateCallback>
    where
        F: Fn(&[Payload], TaskId) -> Vec<Payload> + Send + Sync + 'static,
    {
        if self.callbacks.contains_key(&cb) {
            return Err(DuplicateCallback(cb));
        }
        Ok(self.register_arc(cb, Arc::new(f)))
    }

    /// Replace the binding of `cb` (registering it if absent). The loud
    /// sibling of [`register`](Self::register) for intentional overrides —
    /// e.g. swapping a production callback for a test double.
    pub fn rebind<F>(&mut self, cb: CallbackId, f: F) -> &mut Self
    where
        F: Fn(&[Payload], TaskId) -> Vec<Payload> + Send + Sync + 'static,
    {
        self.callbacks.insert(cb, Arc::new(f));
        self
    }

    /// Bind an already-shared callback.
    ///
    /// # Panics
    /// If `cb` is already bound (see [`DuplicateCallback`]).
    pub fn register_arc(&mut self, cb: CallbackId, f: Callback) -> &mut Self {
        assert!(
            self.callbacks.insert(cb, f).is_none(),
            "{}",
            DuplicateCallback(cb)
        );
        self
    }

    /// Declare the arity of `cb`: the number of inputs it consumes and/or
    /// outputs it produces, `None` leaving a direction unconstrained
    /// (callbacks like a generic reducer take any fan-in). The BF004 lint
    /// pass checks every task using `cb` against the declaration at
    /// preflight.
    pub fn declare_arity(
        &mut self,
        cb: CallbackId,
        inputs: Option<usize>,
        outputs: Option<usize>,
    ) -> &mut Self {
        self.arities.insert(cb, (inputs, outputs));
        self
    }

    /// The declared arity of `cb` as `(inputs, outputs)`, if any.
    pub fn declared_arity(&self, cb: CallbackId) -> Option<(Option<usize>, Option<usize>)> {
        self.arities.get(&cb).copied()
    }

    /// Look up the implementation for a callback id.
    pub fn get(&self, cb: CallbackId) -> Option<&Callback> {
        self.callbacks.get(&cb)
    }

    /// Whether every id in `ids` has a binding; returns missing ids.
    pub fn missing(&self, ids: &[CallbackId]) -> Vec<CallbackId> {
        ids.iter().copied().filter(|id| !self.callbacks.contains_key(id)).collect()
    }

    /// Number of registered callbacks.
    pub fn len(&self) -> usize {
        self.callbacks.len()
    }

    /// Whether no callbacks are registered.
    pub fn is_empty(&self) -> bool {
        self.callbacks.is_empty()
    }

    /// Iterate over all bindings (unspecified order). Lets decorators —
    /// e.g. [`inject_panics`](crate::fault::inject_panics) — rebuild a
    /// registry with every callback wrapped.
    pub fn iter(&self) -> impl Iterator<Item = (CallbackId, &Callback)> {
        self.callbacks.iter().map(|(&id, cb)| (id, cb))
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ids: Vec<_> = self.callbacks.keys().collect();
        ids.sort();
        f.debug_struct("Registry").field("callbacks", &ids).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Blob;
    use crate::payload::PayloadData;

    #[test]
    fn register_and_invoke() {
        let mut r = Registry::new();
        r.register(CallbackId(1), |inputs, id| {
            assert_eq!(id, TaskId(7));
            assert_eq!(inputs.len(), 1);
            vec![Payload::wrap(Blob(vec![42]))]
        });
        let cb = r.get(CallbackId(1)).unwrap();
        let out = cb(&[Payload::wrap(Blob(vec![]))], TaskId(7));
        assert_eq!(out.len(), 1);
        assert_eq!(*out[0].extract::<Blob>().unwrap(), Blob(vec![42]));
    }

    #[test]
    fn missing_reports_unbound_ids() {
        let mut r = Registry::new();
        r.register(CallbackId(0), |_, _| vec![]);
        assert_eq!(r.missing(&[CallbackId(0), CallbackId(1)]), vec![CallbackId(1)]);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn explicit_rebinding_replaces() {
        let mut r = Registry::new();
        r.register(CallbackId(0), |_, _| vec![Payload::wrap(Blob(vec![1]))]);
        r.rebind(CallbackId(0), |_, _| vec![Payload::wrap(Blob(vec![2]))]);
        let out = r.get(CallbackId(0)).unwrap()(&[], TaskId(0));
        assert_eq!(*out[0].extract::<Blob>().unwrap(), Blob(vec![2]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate registration of callback")]
    fn accidental_duplicate_registration_is_rejected() {
        let mut r = Registry::new();
        r.register(CallbackId(0), |_, _| vec![]);
        r.register(CallbackId(0), |_, _| vec![]); // shadowing bug: rejected
    }

    #[test]
    fn try_register_reports_the_collision() {
        let mut r = Registry::new();
        r.register(CallbackId(3), |_, _| vec![]);
        let err = r.try_register(CallbackId(3), |_, _| vec![]).unwrap_err();
        assert_eq!(err, DuplicateCallback(CallbackId(3)));
        assert!(err.to_string().contains("rebind"));
        assert!(r.try_register(CallbackId(4), |_, _| vec![]).is_ok());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_declarations_are_retrievable() {
        let mut r = Registry::new();
        r.register(CallbackId(0), |i, _| i.to_vec()).declare_arity(CallbackId(0), Some(2), Some(1));
        assert_eq!(r.declared_arity(CallbackId(0)), Some((Some(2), Some(1))));
        assert_eq!(r.declared_arity(CallbackId(1)), None);
    }

    #[test]
    fn callbacks_see_buffered_inputs_transparently() {
        // A callback written against extract() works whether the payload
        // arrived in memory or serialized — transport independence.
        let mut r = Registry::new();
        r.register(CallbackId(0), |inputs, _| {
            let b = inputs[0].extract::<Blob>().unwrap();
            vec![Payload::wrap(Blob(b.0.iter().map(|x| x + 1).collect()))]
        });
        let cb = r.get(CallbackId(0)).unwrap().clone();
        let mem = cb(&[Payload::wrap(Blob(vec![1]))], TaskId(0));
        let wire = cb(&[Payload::buffer(Blob(vec![1]).encode())], TaskId(0));
        assert_eq!(
            *mem[0].extract::<Blob>().unwrap(),
            *wire[0].extract::<Blob>().unwrap()
        );
    }
}
