//! Graph composition: building big dataflows from prefixed sub-graphs.
//!
//! "Different portions of the graph, such as the embedded reduction or the
//! various broadcast patterns, can be assigned unique prefixes and then can
//! use the traditional modulo type operations to assign postfix Ids." These
//! combinators implement that scheme generically: [`OffsetGraph`] relocates
//! a graph's id space, and [`ChainGraph`] splices one graph's external
//! outputs into another's external inputs.

use std::sync::Arc;

use crate::graph::TaskGraph;
use crate::ids::{CallbackId, TaskId};
use crate::task::Task;

/// A graph whose task ids (and callback ids) are shifted by fixed offsets.
///
/// Wrapping is purely procedural: queries translate ids on the way in and
/// out, so a million-task sub-graph costs nothing to relocate.
pub struct OffsetGraph {
    inner: Arc<dyn TaskGraph>,
    id_offset: u64,
    cb_offset: u32,
}

impl OffsetGraph {
    /// Shift `inner`'s task ids by `id_offset` and callback ids by
    /// `cb_offset`.
    pub fn new(inner: Arc<dyn TaskGraph>, id_offset: u64, cb_offset: u32) -> Self {
        OffsetGraph { inner, id_offset, cb_offset }
    }

    fn up(&self, id: TaskId) -> TaskId {
        if id.is_external() {
            id
        } else {
            TaskId(id.0 + self.id_offset)
        }
    }

    fn down(&self, id: TaskId) -> Option<TaskId> {
        if id.is_external() {
            Some(id)
        } else {
            id.0.checked_sub(self.id_offset).map(TaskId)
        }
    }
}

impl TaskGraph for OffsetGraph {
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        let inner_id = self.down(id)?;
        let mut t = self.inner.task(inner_id)?;
        t.id = self.up(t.id);
        t.callback = CallbackId(t.callback.0 + self.cb_offset);
        for src in &mut t.incoming {
            *src = self.up(*src);
        }
        for dsts in &mut t.outgoing {
            for dst in dsts {
                *dst = self.up(*dst);
            }
        }
        Some(t)
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        self.inner
            .callback_ids()
            .into_iter()
            .map(|c| CallbackId(c.0 + self.cb_offset))
            .collect()
    }

    fn ids(&self) -> Vec<TaskId> {
        self.inner.ids().into_iter().map(|id| self.up(id)).collect()
    }
}

/// A link splicing one external output of `first` into one external input
/// of `second`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Producing task, in the composed id space.
    pub from: TaskId,
    /// Consuming task, in the composed id space.
    pub to: TaskId,
}

/// Two graphs executed as one dataflow, with `links` replacing matched
/// external endpoints.
///
/// For each link `(from, to)`, one `EXTERNAL` entry in `from`'s outgoing
/// fan-outs is rewritten to `to` (scanning slots in order, links applied in
/// order), and one `EXTERNAL` input slot of `to` is rewritten to `from`
/// (same order discipline). Unlinked external endpoints keep their meaning.
///
/// Callers are responsible for making the two id spaces disjoint, normally
/// by wrapping `second` in an [`OffsetGraph`]; construction panics on
/// overlap, since silent aliasing would corrupt routing.
pub struct ChainGraph {
    first: Arc<dyn TaskGraph>,
    second: Arc<dyn TaskGraph>,
    links: Vec<Link>,
    first_ids: std::collections::HashSet<TaskId>,
}

impl ChainGraph {
    /// Compose `first` and `second` with the given links.
    ///
    /// # Panics
    /// If the id spaces overlap, or a link references a task that does not
    /// exist on the expected side.
    pub fn new(first: Arc<dyn TaskGraph>, second: Arc<dyn TaskGraph>, links: Vec<Link>) -> Self {
        let first_ids: std::collections::HashSet<TaskId> = first.ids().into_iter().collect();
        for id in second.ids() {
            assert!(!first_ids.contains(&id), "id spaces overlap at {id}");
        }
        let second_ids: std::collections::HashSet<TaskId> = second.ids().into_iter().collect();
        for l in &links {
            assert!(first_ids.contains(&l.from), "link source {} not in first graph", l.from);
            assert!(second_ids.contains(&l.to), "link target {} not in second graph", l.to);
        }
        ChainGraph { first, second, links, first_ids }
    }
}

impl TaskGraph for ChainGraph {
    fn size(&self) -> usize {
        self.first.size() + self.second.size()
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        if self.first_ids.contains(&id) {
            let mut t = self.first.task(id)?;
            // Rewrite one EXTERNAL outgoing entry per link, in slot order.
            for link in self.links.iter().filter(|l| l.from == id) {
                'rewrite: for dsts in &mut t.outgoing {
                    for dst in dsts.iter_mut() {
                        if dst.is_external() {
                            *dst = link.to;
                            break 'rewrite;
                        }
                    }
                }
            }
            Some(t)
        } else {
            let mut t = self.second.task(id)?;
            for link in self.links.iter().filter(|l| l.to == id) {
                if let Some(slot) = t.incoming.iter_mut().find(|s| s.is_external()) {
                    *slot = link.from;
                }
            }
            Some(t)
        }
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        let mut ids = self.first.callback_ids();
        for c in self.second.callback_ids() {
            if !ids.contains(&c) {
                ids.push(c);
            }
        }
        ids
    }

    fn ids(&self) -> Vec<TaskId> {
        let mut ids = self.first.ids();
        ids.extend(self.second.ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitGraph;
    use crate::ids::ShardId;
    use crate::lint::lint_graph;
    use crate::taskmap::FnMap;

    /// Assert `g` lints clean on one shard holding its (sparse) ids.
    fn assert_lints_clean(g: &dyn TaskGraph) {
        let rep = lint_graph(g, &FnMap::new(1, g.ids(), |_| ShardId(0)));
        assert!(rep.is_empty(), "{rep}");
    }

    /// Single task with one external in and one external out.
    fn unit(cb: u32) -> ExplicitGraph {
        let mut t = Task::new(TaskId(0), CallbackId(cb));
        t.incoming = vec![TaskId::EXTERNAL];
        t.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(vec![t], vec![CallbackId(cb)])
    }

    #[test]
    fn offset_translates_everything() {
        let g = OffsetGraph::new(Arc::new(unit(0)), 100, 5);
        assert_eq!(g.ids(), vec![TaskId(100)]);
        let t = g.task(TaskId(100)).unwrap();
        assert_eq!(t.id, TaskId(100));
        assert_eq!(t.callback, CallbackId(5));
        assert_eq!(t.incoming, vec![TaskId::EXTERNAL]);
        assert_eq!(g.callback_ids(), vec![CallbackId(5)]);
        assert!(g.task(TaskId(99)).is_none());
        assert_lints_clean(&g);
    }

    #[test]
    fn chain_splices_external_endpoints() {
        let first: Arc<dyn TaskGraph> = Arc::new(unit(0));
        let second: Arc<dyn TaskGraph> = Arc::new(OffsetGraph::new(Arc::new(unit(1)), 10, 0));
        let chain = ChainGraph::new(
            first,
            second,
            vec![Link { from: TaskId(0), to: TaskId(10) }],
        );
        assert_eq!(chain.size(), 2);
        let a = chain.task(TaskId(0)).unwrap();
        assert_eq!(a.outgoing, vec![vec![TaskId(10)]]);
        let b = chain.task(TaskId(10)).unwrap();
        assert_eq!(b.incoming, vec![TaskId(0)]);
        // External input of the chain is first's input; output is second's.
        assert_eq!(chain.input_tasks(), vec![TaskId(0)]);
        assert_eq!(chain.output_tasks(), vec![TaskId(10)]);
        assert_lints_clean(&chain);
    }

    #[test]
    #[should_panic(expected = "id spaces overlap")]
    fn chain_rejects_overlapping_ids() {
        ChainGraph::new(Arc::new(unit(0)), Arc::new(unit(1)), vec![]);
    }

    #[test]
    #[should_panic(expected = "not in first graph")]
    fn chain_rejects_bad_link() {
        let second: Arc<dyn TaskGraph> = Arc::new(OffsetGraph::new(Arc::new(unit(1)), 10, 0));
        ChainGraph::new(
            Arc::new(unit(0)),
            second,
            vec![Link { from: TaskId(7), to: TaskId(10) }],
        );
    }

    #[test]
    fn unlinked_externals_survive() {
        // Chain with no links: both graphs keep their external endpoints.
        let first: Arc<dyn TaskGraph> = Arc::new(unit(0));
        let second: Arc<dyn TaskGraph> = Arc::new(OffsetGraph::new(Arc::new(unit(1)), 10, 0));
        let chain = ChainGraph::new(first, second, vec![]);
        let mut ins = chain.input_tasks();
        ins.sort();
        assert_eq!(ins, vec![TaskId(0), TaskId(10)]);
        assert_lints_clean(&chain);
    }
}
