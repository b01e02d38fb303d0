//! Mutation tests: prove the checker has teeth by running the same
//! protocol in a correct and a deliberately-broken variant and
//! asserting the broken one is caught. The variants mirror the two
//! mutation classes the ISSUE calls out — a weakened memory ordering
//! and a dropped lock.
#![cfg(dqec_check)]

use std::sync::Arc;

use dqec_check::sync::atomic::{AtomicUsize, Ordering};
use dqec_check::sync::Mutex;
use dqec_check::{check, thread, Config};

/// Publication handshake mirroring the rayon resident pool's
/// `remaining` completion latch: a worker writes its result slot, then
/// announces completion with a `fetch_sub` on the remaining-work
/// counter; the consumer waits for the counter to hit zero, then reads
/// the slot.
fn handshake(publish: Ordering, observe: Ordering) {
    let slot = Arc::new(AtomicUsize::new(0));
    let remaining = Arc::new(AtomicUsize::new(1));
    let (s2, r2) = (Arc::clone(&slot), Arc::clone(&remaining));
    let worker = thread::spawn(move || {
        s2.store(42, Ordering::Relaxed);
        r2.fetch_sub(1, publish);
    });
    while remaining.load(observe) != 0 {
        thread::yield_now();
    }
    assert_eq!(
        slot.load(Ordering::Relaxed),
        42,
        "handshake observed completion but read a stale slot"
    );
    worker.join().expect("worker");
}

#[test]
fn handshake_with_release_acquire_is_correct() {
    let outcome = check(&Config::random(2000), || {
        handshake(Ordering::Release, Ordering::Acquire)
    });
    assert!(
        outcome.failure.is_none(),
        "correct handshake flagged: {}",
        outcome.failure.map(|f| f.report()).unwrap_or_default()
    );
}

#[test]
fn mutation_weakened_ordering_is_caught() {
    let outcome = check(&Config::random(4000).seed(0xD9EC_0007), || {
        handshake(Ordering::Relaxed, Ordering::Relaxed)
    });
    let failure = outcome
        .failure
        .expect("Relaxed-mutated handshake must be caught");
    assert!(
        failure.message.contains("stale slot"),
        "{}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "mutation counterexample must come with a trace"
    );
}

/// Two workers taking tasks off one shared queue, as the rayon shim's
/// participations take blocks off a fan-out's feed: the correct variant
/// pops under the queue mutex; the mutated variant reads the length and
/// writes it back without holding the lock, racing the other worker.
fn pop_tasks(locked: bool) {
    let deque = Arc::new(Mutex::new(vec![1u32, 2]));
    let len = Arc::new(AtomicUsize::new(2));
    let taken = Arc::new(AtomicUsize::new(0));

    let worker = |deque: Arc<Mutex<Vec<u32>>>, len: Arc<AtomicUsize>, taken: Arc<AtomicUsize>| {
        move || {
            if locked {
                let mut q = deque.lock().unwrap_or_else(|p| p.into_inner());
                if q.pop().is_some() {
                    len.store(q.len(), Ordering::SeqCst);
                    taken.fetch_add(1, Ordering::SeqCst);
                }
            } else {
                // MUTATION: length is read and written back outside the
                // lock, so two poppers can both observe len == 2 and
                // both "take" the same task.
                let n = len.load(Ordering::SeqCst);
                if n > 0 {
                    let mut q = deque.lock().unwrap_or_else(|p| p.into_inner());
                    q.pop();
                    drop(q);
                    len.store(n - 1, Ordering::SeqCst);
                    taken.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    };

    let t1 = thread::spawn(worker(
        Arc::clone(&deque),
        Arc::clone(&len),
        Arc::clone(&taken),
    ));
    let t2 = thread::spawn(worker(
        Arc::clone(&deque),
        Arc::clone(&len),
        Arc::clone(&taken),
    ));
    t1.join().expect("popper 1");
    t2.join().expect("popper 2");

    let q = deque.lock().unwrap_or_else(|p| p.into_inner());
    assert_eq!(
        q.len() + taken.load(Ordering::SeqCst),
        2,
        "tasks lost or duplicated (deque {} left, {} taken)",
        q.len(),
        taken.load(Ordering::SeqCst)
    );
    assert_eq!(
        len.load(Ordering::SeqCst),
        q.len(),
        "published length diverged from the deque"
    );
}

#[test]
fn locked_pop_is_correct() {
    let outcome = check(&Config::random(1500), || pop_tasks(true));
    assert!(
        outcome.failure.is_none(),
        "locked pop flagged: {}",
        outcome.failure.map(|f| f.report()).unwrap_or_default()
    );
}

#[test]
fn mutation_dropped_lock_is_caught() {
    let outcome = check(&Config::random(3000).seed(0xD9EC_0008), || pop_tasks(false));
    let failure = outcome
        .failure
        .expect("lock-dropping mutation must be caught");
    assert!(
        failure.message.contains("diverged") || failure.message.contains("lost or duplicated"),
        "{}",
        failure.message
    );
}
