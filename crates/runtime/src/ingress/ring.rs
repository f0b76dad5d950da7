//! Lock-free batched event ingestion from producer threads.
//!
//! Instrumented producer threads cannot afford the ingest path's
//! name hashing, and a shared queue would serialise them against
//! each other. Here each producer owns a bounded **single-producer /
//! single-consumer ring** of packed `u64` words; events are written
//! with relaxed stores and published wholesale by one
//! release-store of the tail, so a producer's cost per event is a
//! few word writes and one atomic. The engine-side consumer
//! ([`crate::Tesla::drain_ingress`]) drains every ring in batches
//! through [`crate::Tesla::dispatch_batch`], one call of the engine's
//! dispatch loop per batch.
//!
//! Wire format, one event = one header word + payload words:
//!
//! ```text
//! header: bits 0..4   event kind (0..=5)
//!         bits 4..8   field operator (field_store only)
//!         bits 8..16  payload word count
//!         bits 32..64 NameId / class id
//! ```
//!
//! Payload by kind: `fn_entry` args…; `fn_exit` args… + ret;
//! `field_store` field-id, object, value; `msg_entry` recv + args…;
//! `msg_exit` recv + args… + ret; `site` vals…. Name ids are
//! pre-interned when the producer handle stages them — the consumer
//! never touches the interner.
//!
//! Ordering: events from one producer dispatch in push order;
//! events from different producers interleave arbitrarily, exactly
//! as concurrent hook calls from different threads would.

use crate::engine::Event;
use crate::event::Violation;
use crate::ingress::batch::{BatchBuf, BatchItem};
use crate::intern::NameId;
use crate::locks;
use crate::{ClassId, Tesla};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tesla_spec::{FieldOp, Value};

const K_FN_ENTRY: u64 = 0;
const K_FN_EXIT: u64 = 1;
const K_FIELD_STORE: u64 = 2;
const K_MSG_ENTRY: u64 = 3;
const K_MSG_EXIT: u64 = 4;
const K_SITE: u64 = 5;

/// The longest event the wire format can express: 255 payload words.
const MAX_PAYLOAD: usize = 255;

fn header(kind: u64, op: u64, n_payload: usize, id: u32) -> u64 {
    kind | (op << 4) | ((n_payload as u64) << 8) | (u64::from(id) << 32)
}

/// One producer's bounded SPSC word ring. Indices increase
/// monotonically; a word lives at `slot[index & mask]`.
#[derive(Debug)]
struct Ring {
    slots: Box<[AtomicU64]>,
    mask: usize,
    /// Next word index the consumer will read. Written by the
    /// consumer only.
    head: AtomicUsize,
    /// First word index not yet published. Written by the producer
    /// only; the release-store here publishes every word of the
    /// pushed event.
    tail: AtomicUsize,
}

impl Ring {
    fn new(capacity_words: usize) -> Ring {
        let cap = capacity_words.next_power_of_two().max(64);
        let slots = (0..cap).map(|_| AtomicU64::new(0)).collect();
        Ring {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: append `words` as one event. `false` when the
    /// ring lacks space (backpressure — the caller retries or drops).
    fn push(&self, words: &[u64]) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail - head + words.len() > self.slots.len() {
            return false;
        }
        for (i, &w) in words.iter().enumerate() {
            self.slots[(tail + i) & self.mask].store(w, Ordering::Relaxed);
        }
        self.tail.store(tail + words.len(), Ordering::Release);
        true
    }

    /// Consumer side: decode up to `max_events` whole events into
    /// `batch`. Payload words are written straight into the batch's
    /// value arena — no intermediate copy. Returns how many events
    /// were staged.
    fn pop_into(&self, batch: &mut BatchBuf, max_events: usize) -> usize {
        let mut head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let mut staged = 0;
        while staged < max_events && head < tail {
            let h = self.slots[head & self.mask].load(Ordering::Relaxed);
            let kind = h & 0xf;
            let op = (h >> 4) & 0xf;
            let n = ((h >> 8) & 0xff) as usize;
            let id = (h >> 32) as u32;
            debug_assert!(head + 1 + n <= tail, "torn event frame");
            let start = batch.vals.len();
            let s32 = u32::try_from(start).expect("batch value arena exceeds u32 range");
            for i in 0..n {
                batch.vals.push(Value(
                    self.slots[(head + 1 + i) & self.mask].load(Ordering::Relaxed),
                ));
            }
            head += 1 + n;
            let ev = match kind {
                K_FN_ENTRY => Event::FnEntry {
                    f: NameId(id),
                    args: (s32, n as u32),
                },
                K_FN_EXIT => {
                    let ret = if n > 0 {
                        batch.vals.pop().unwrap()
                    } else {
                        Value(0)
                    };
                    Event::FnExit {
                        f: NameId(id),
                        args: (s32, n.saturating_sub(1) as u32),
                        ret,
                    }
                }
                K_FIELD_STORE => {
                    let fid = NameId(batch.vals[start].0 as u32);
                    let object = batch.vals[start + 1];
                    let value = batch.vals[start + 2];
                    batch.vals.truncate(start);
                    Event::FieldStore {
                        struct_id: NameId(id),
                        field_id: fid,
                        object,
                        // An unknown code decodes leniently as `=`.
                        op: FieldOp::ALL
                            .get(op as usize)
                            .copied()
                            .unwrap_or(FieldOp::Assign),
                        value,
                    }
                }
                // The receiver word stays in the arena (one unused
                // slot) so the args span needs no shift.
                K_MSG_ENTRY => Event::MsgEntry {
                    sel: NameId(id),
                    receiver: batch.vals[start],
                    args: (s32 + 1, (n - 1) as u32),
                },
                K_MSG_EXIT => {
                    let ret = if n > 1 {
                        batch.vals.pop().unwrap()
                    } else {
                        Value(0)
                    };
                    Event::MsgExit {
                        sel: NameId(id),
                        receiver: batch.vals[start],
                        args: (s32 + 1, n.saturating_sub(2) as u32),
                        ret,
                    }
                }
                _ => Event::Site {
                    class: ClassId(id),
                    values: (s32, n as u32),
                },
            };
            batch.items.push(BatchItem::Event(ev));
            staged += 1;
        }
        self.head.store(head, Ordering::Release);
        staged
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) >= self.tail.load(Ordering::Acquire)
    }
}

/// The engine-side registry of producer rings. Create one per
/// engine, hand a [`EventProducer`] to each producing thread, and
/// drain with [`Tesla::drain_ingress`].
#[derive(Debug)]
pub struct BatchIngress {
    rings: Mutex<Vec<Arc<Ring>>>,
    capacity_words: usize,
}

impl Default for BatchIngress {
    fn default() -> BatchIngress {
        BatchIngress::new(16 * 1024)
    }
}

impl BatchIngress {
    /// A registry whose producer rings hold `capacity_words` packed
    /// words each (one event costs 1 + payload words).
    pub fn new(capacity_words: usize) -> BatchIngress {
        BatchIngress {
            rings: Mutex::new(Vec::new()),
            capacity_words,
        }
    }

    /// Register a new producer ring and return its handle. Call once
    /// per producing thread; the handle is `Send` but not `Sync`
    /// (single producer per ring).
    pub fn producer(&self) -> EventProducer {
        let ring = Arc::new(Ring::new(self.capacity_words));
        locks::lock(&self.rings).push(Arc::clone(&ring));
        EventProducer {
            ring,
            buf: Vec::with_capacity(16),
        }
    }

    /// True when every registered ring is drained.
    pub fn is_empty(&self) -> bool {
        locks::lock(&self.rings).iter().all(|r| r.is_empty())
    }

    fn rings(&self) -> Vec<Arc<Ring>> {
        locks::lock(&self.rings).clone()
    }
}

/// A producing thread's handle onto its own ring. Push methods
/// return `false` when the ring is full (the producer decides
/// whether to spin or shed).
#[derive(Debug)]
pub struct EventProducer {
    ring: Arc<Ring>,
    buf: Vec<u64>,
}

impl EventProducer {
    /// Start staging: clear the scratch frame and reserve the header
    /// slot. Payload words are appended directly — no per-event
    /// allocation on the producer's hot path.
    fn begin(&mut self) {
        self.buf.clear();
        self.buf.push(0);
    }

    /// Patch the header into the reserved slot and push the frame.
    fn finish(&mut self, kind: u64, op: u64, id: u32) -> bool {
        let n = self.buf.len() - 1;
        if n > MAX_PAYLOAD {
            return false;
        }
        self.buf[0] = header(kind, op, n, id);
        self.ring.push(&self.buf)
    }

    /// Stage a `fn_entry` event.
    pub fn fn_entry(&mut self, f: NameId, args: &[Value]) -> bool {
        self.begin();
        self.buf.extend(args.iter().map(|v| v.0));
        self.finish(K_FN_ENTRY, 0, f.0)
    }

    /// Stage a `fn_exit` event.
    pub fn fn_exit(&mut self, f: NameId, args: &[Value], ret: Value) -> bool {
        self.begin();
        self.buf.extend(args.iter().map(|v| v.0));
        self.buf.push(ret.0);
        self.finish(K_FN_EXIT, 0, f.0)
    }

    /// Stage a `field_store` event.
    pub fn field_store(
        &mut self,
        strct: NameId,
        field: NameId,
        object: Value,
        op: FieldOp,
        value: Value,
    ) -> bool {
        self.begin();
        self.buf.extend([u64::from(field.0), object.0, value.0]);
        self.finish(K_FIELD_STORE, op as u64, strct.0)
    }

    /// Stage a `msg_entry` event.
    pub fn msg_entry(&mut self, sel: NameId, recv: Value, args: &[Value]) -> bool {
        self.begin();
        self.buf.push(recv.0);
        self.buf.extend(args.iter().map(|v| v.0));
        self.finish(K_MSG_ENTRY, 0, sel.0)
    }

    /// Stage a `msg_exit` event.
    pub fn msg_exit(&mut self, sel: NameId, recv: Value, args: &[Value], ret: Value) -> bool {
        self.begin();
        self.buf.push(recv.0);
        self.buf.extend(args.iter().map(|v| v.0));
        self.buf.push(ret.0);
        self.finish(K_MSG_EXIT, 0, sel.0)
    }

    /// Stage an assertion-site event.
    pub fn site(&mut self, class: ClassId, vals: &[Value]) -> bool {
        self.begin();
        self.buf.extend(vals.iter().map(|v| v.0));
        self.finish(K_SITE, 0, class.0)
    }
}

impl Tesla {
    /// Drain every producer ring of `ingress` into this engine in
    /// batches of [`crate::Config::batch_size`] events. Returns the
    /// number of events dispatched.
    ///
    /// # Errors
    ///
    /// The first violation whose hook returned `Err` (fail-stop
    /// mode, unknown ids). Events already dispatched stay dispatched;
    /// undrained events stay in their rings.
    pub fn drain_ingress(&self, ingress: &BatchIngress) -> Result<u64, Violation> {
        let batch_size = self.config().batch_size.max(1);
        let mut batch = BatchBuf::with_capacity(batch_size);
        // One registry snapshot per drain call: rings registered
        // while a drain is in flight are picked up on the next call.
        let rings = ingress.rings();
        let mut total = 0u64;
        loop {
            let mut progressed = false;
            for ring in &rings {
                loop {
                    batch.clear();
                    let n = ring.pop_into(&mut batch, batch_size);
                    if n == 0 {
                        break;
                    }
                    progressed = true;
                    match self.dispatch_batch(&batch) {
                        Ok(()) => total += n as u64,
                        Err((_, violation)) => return Err(violation),
                    }
                }
            }
            if !progressed {
                return Ok(total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_roundtrips_every_kind() {
        let ingress = BatchIngress::new(256);
        let mut p = ingress.producer();
        assert!(p.fn_entry(NameId(7), &[Value(1), Value(2)]));
        assert!(p.fn_exit(NameId(7), &[Value(1)], Value(9)));
        assert!(p.field_store(NameId(3), NameId(4), Value(5), FieldOp::OrAssign, Value(6)));
        assert!(p.msg_entry(NameId(8), Value(10), &[Value(11)]));
        assert!(p.msg_exit(NameId(8), Value(10), &[], Value(12)));
        assert!(p.site(ClassId(2), &[Value(13)]));
        let rings = ingress.rings();
        let mut batch = BatchBuf::new();
        let n = rings[0].pop_into(&mut batch, 100);
        assert_eq!(n, 6);
        match batch.items[0] {
            BatchItem::Event(Event::FnEntry { f, args }) => {
                assert_eq!(f, NameId(7));
                assert_eq!(batch.slice(args), &[Value(1), Value(2)]);
            }
            ref other => panic!("{other:?}"),
        }
        match batch.items[2] {
            BatchItem::Event(Event::FieldStore {
                struct_id,
                field_id,
                object,
                op,
                value,
            }) => {
                assert_eq!((struct_id, field_id), (NameId(3), NameId(4)));
                assert_eq!((object, value), (Value(5), Value(6)));
                assert_eq!(op, FieldOp::OrAssign);
            }
            ref other => panic!("{other:?}"),
        }
        match batch.items[5] {
            BatchItem::Event(Event::Site { class, values }) => {
                assert_eq!(class, ClassId(2));
                assert_eq!(batch.slice(values), &[Value(13)]);
            }
            ref other => panic!("{other:?}"),
        }
        assert!(ingress.is_empty());
    }

    #[test]
    fn full_ring_backpressures_without_corruption() {
        let ingress = BatchIngress::new(64);
        let mut p = ingress.producer();
        let mut pushed = 0u32;
        while p.fn_entry(NameId(pushed), &[Value(u64::from(pushed))]) {
            pushed += 1;
        }
        assert!(pushed >= 16);
        let rings = ingress.rings();
        let mut batch = BatchBuf::new();
        let n = rings[0].pop_into(&mut batch, usize::MAX);
        assert_eq!(n as u32, pushed);
        for (i, item) in batch.items.iter().enumerate() {
            match *item {
                BatchItem::Event(Event::FnEntry { f, args }) => {
                    assert_eq!(f, NameId(i as u32));
                    assert_eq!(batch.slice(args), &[Value(i as u64)]);
                }
                ref other => panic!("{other:?}"),
            }
        }
        // Space freed: pushes succeed again.
        assert!(p.fn_entry(NameId(0), &[]));
    }

    #[test]
    fn cross_thread_producer_consumer() {
        let ingress = Arc::new(BatchIngress::new(1024));
        let mut p = ingress.producer();
        let events = 10_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..events {
                while !p.site(ClassId(0), &[Value(i)]) {
                    std::thread::yield_now();
                }
            }
        });
        let rings = ingress.rings();
        let mut batch = BatchBuf::new();
        let mut seen = 0u64;
        while seen < events {
            batch.clear();
            let n = rings[0].pop_into(&mut batch, 256);
            for item in &batch.items {
                match *item {
                    BatchItem::Event(Event::Site { values, .. }) => {
                        assert_eq!(batch.slice(values), &[Value(seen)]);
                        seen += 1;
                    }
                    ref other => panic!("{other:?}"),
                }
            }
            if n == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
