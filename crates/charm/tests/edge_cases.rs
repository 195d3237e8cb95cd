//! Edge-case tests for the chare-array runtime: oversubscription and
//! messages to retired chares.

use babelflow_core::{Blob, Payload, PayloadData, TaskId};
use babelflow_charm::{Chare, ChareCtx, CharmRuntime};

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

/// A chare that needs `need` messages, then forwards their sum (plus its
/// index) to `next`, or emits externally.
struct Hop {
    id: u64,
    need: usize,
    got: u64,
    seen: usize,
    next: Option<u64>,
}

impl Chare for Hop {
    fn on_message(&mut self, _src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
        self.got += val(&payload);
        self.seen += 1;
        if self.seen < self.need {
            return false;
        }
        match self.next {
            Some(n) => ctx.send(n, TaskId(self.id), pay(self.got + self.id)),
            None => ctx.emit_external(TaskId(self.id), pay(self.got + self.id)),
        }
        true
    }
}

/// Massive oversubscription: many more chares than PEs still drains.
#[test]
fn oversubscription_many_chares_few_pes() {
    let n = 300u64;
    let factory = move |idx: u64| -> Box<dyn Chare> {
        Box::new(Hop { id: idx, need: 2, got: 0, seen: 0, next: None })
    };
    let rt = CharmRuntime::new(2);
    let indices: Vec<u64> = (0..n).collect();
    let mut initial = Vec::new();
    for i in 0..n {
        initial.push((i, TaskId::EXTERNAL, pay(i)));
        initial.push((i, TaskId::EXTERNAL, pay(1000)));
    }
    let (outputs, stats) = rt.run(&indices, factory, initial).unwrap();
    assert_eq!(outputs.len(), n as usize);
    assert_eq!(stats.retired, n);
    for i in 0..n {
        assert_eq!(val(&outputs[&TaskId(i)][0]), i + 1000 + i);
    }
}

/// Late messages to retired chares are dropped and counted, not fatal.
#[test]
fn late_messages_are_counted_not_fatal() {
    struct Echo;
    impl Chare for Echo {
        fn on_message(&mut self, _src: TaskId, p: Payload, ctx: &mut ChareCtx<'_>) -> bool {
            // Sends to chare 1 twice; chare 1 retires on its first message,
            // so the second is late.
            if ctx.self_idx == 0 {
                ctx.send(1, TaskId(0), p.clone());
                ctx.send(1, TaskId(0), p);
            } else {
                ctx.emit_external(TaskId(1), p);
            }
            true
        }
    }
    let rt = CharmRuntime::new(1);
    let factory = |_| -> Box<dyn Chare> { Box::new(Echo) };
    let (outputs, stats) = rt
        .run(&[0, 1], factory, vec![(0, TaskId::EXTERNAL, pay(7))])
        .unwrap();
    assert_eq!(val(&outputs[&TaskId(1)][0]), 7);
    assert_eq!(stats.late_messages, 1);
    // Keep the PayloadData import exercised.
    let _ = Blob(vec![]).encode();
}
