//! The in-process site executor: every site of an in-process fleet runs
//! on one pool of [`available_parallelism`](std::thread::available_parallelism)
//! threads (fewer if there are fewer sites), not on a thread of its own.
//!
//! A site is a step handler — a request frame in, `Some(reply)` out, or
//! `None` to stop serving — the same shape the serve loops of
//! [`worker`](crate::worker) drive. The executor keeps one mailbox per
//! site and a FIFO ready queue of sites with work. A pool thread takes
//! the site at the head of the queue, runs its handler on the oldest
//! frame in its mailbox, sends the reply down the site's reply channel
//! and, if more frames wait, puts the site at the back of the queue. A
//! site is on the queue or being run at most once at a time, so its
//! handler is never entered twice at once and its replies leave in the
//! order its frames arrived — the FIFO contract of
//! [`Transport`](crate::Transport).
//!
//! Each mailbox carries a generation. A reconnect bumps it, clears the
//! mailbox and gives the site a fresh reply channel; the next job builds
//! a fresh handler, and a reply that a job of the old generation emits
//! is dropped. A handler panic is caught and closes only that site's
//! reply channel, so the coordinator reads `Closed` from that one site
//! and repairs it; the pool thread goes on serving the others.
//!
//! The same executor runs a session's persistent fleet (threads the
//! transport owns and joins) and the one-shot fleet of a
//! [`std::thread::scope`] (threads the scope joins, handlers that borrow
//! from outside it).

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Scope};

use bytes::Bytes;

use crate::transport::TransportError;

/// One site's step handler: a request frame in, `Some(reply)` out, or
/// `None` to stop serving (a shutdown request), which closes the site.
type Handler<'h> = Box<dyn FnMut(Bytes) -> Option<Bytes> + Send + 'h>;

/// What builds a site's handler: at start, and again after a reconnect.
type MakeHandler<'h> = Box<dyn Fn(usize) -> Handler<'h> + Send + Sync + 'h>;

/// How many pool threads an executor over `sites` sites runs: the
/// machine's available parallelism, or fewer when there are fewer sites
/// (at most one job per site runs at a time, so a further thread would
/// only sleep).
fn pool_size(sites: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(sites)
}

/// A pool thread, named after its index.
fn pool_thread(i: usize) -> std::thread::Builder {
    std::thread::Builder::new().name(format!("gstored-site-{i}"))
}

/// The two halves of an executor over `sites` sites, before any pool
/// thread runs: the mailboxes with each site's reply receiver, and the
/// handlers `make` builds.
pub(crate) fn start<'h, H>(
    sites: usize,
    make: impl Fn(usize) -> H + Send + Sync + 'h,
) -> (Arc<Mailboxes>, Vec<Receiver<Bytes>>, Arc<Sites<'h>>)
where
    H: FnMut(Bytes) -> Option<Bytes> + Send + 'h,
{
    assert!(sites > 0, "need at least one site");
    let (mailboxes, receivers) = Mailboxes::new(sites);
    let make: MakeHandler<'h> = Box::new(move |site| Box::new(make(site)) as Handler<'h>);
    let pool = Arc::new(Sites::new(Arc::clone(&mailboxes), make));
    (mailboxes, receivers, pool)
}

/// Run `pool` on threads of its own; the caller joins them after
/// [`Mailboxes::stop`].
pub(crate) fn spawn(pool: Arc<Sites<'static>>) -> Vec<JoinHandle<()>> {
    (0..pool_size(pool.handlers.len()))
        .map(|i| {
            let pool = Arc::clone(&pool);
            pool_thread(i)
                .spawn(move || pool.work())
                .expect("spawn a site pool thread")
        })
        .collect()
}

/// Run `pool` on threads of `scope`, which joins them after
/// [`Mailboxes::stop`].
pub(crate) fn spawn_in<'scope, 'env>(scope: &'scope Scope<'scope, 'env>, pool: Arc<Sites<'env>>) {
    for i in 0..pool_size(pool.handlers.len()) {
        let pool = Arc::clone(&pool);
        pool_thread(i)
            .spawn_scoped(scope, move || pool.work())
            .expect("spawn a site pool thread");
    }
}

/// The executor's queue side, shared by the transport (which posts
/// frames, reconnects sites and stops the pool) and the pool threads.
#[derive(Debug)]
pub(crate) struct Mailboxes {
    state: Mutex<Ready>,
    wake: Condvar,
    /// Per site: the generation its reply channel belongs to, and the
    /// channel (`None` once closed). Apart from `state` so a reply is
    /// sent without holding the queue's lock.
    replies: Vec<Mutex<(u64, Option<Sender<Bytes>>)>>,
}

#[derive(Debug)]
struct Ready {
    /// Sites with a frame to run, oldest first.
    queue: VecDeque<usize>,
    sites: Vec<Mailbox>,
    stopped: bool,
}

#[derive(Debug)]
struct Mailbox {
    frames: VecDeque<Bytes>,
    /// On the ready queue or being run: at most one job per site.
    busy: bool,
    generation: u64,
    /// `false` once the site is closed (its handler stopped or
    /// panicked) until a reconnect reopens it.
    open: bool,
}

impl Mailboxes {
    /// Mailboxes for `sites` sites, and each site's reply receiver.
    fn new(sites: usize) -> (Arc<Mailboxes>, Vec<Receiver<Bytes>>) {
        let (replies, receivers) = (0..sites)
            .map(|_| {
                let (tx, rx) = channel();
                (Mutex::new((0, Some(tx))), rx)
            })
            .unzip();
        let sites = (0..sites)
            .map(|_| Mailbox {
                frames: VecDeque::new(),
                busy: false,
                generation: 0,
                open: true,
            })
            .collect();
        let mailboxes = Mailboxes {
            state: Mutex::new(Ready {
                queue: VecDeque::new(),
                sites,
                stopped: false,
            }),
            wake: Condvar::new(),
            replies,
        };
        (Arc::new(mailboxes), receivers)
    }

    fn lock(&self) -> MutexGuard<'_, Ready> {
        // No handler runs under this lock, and every update leaves the
        // queue and mailboxes consistent, so a poisoned guard is safe to
        // recover; `Drop` of the transport takes it too.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Queue `frame` for `site`; `Closed` if the site's handler stopped
    /// or panicked since its last reconnect.
    pub(crate) fn post(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        let mut ready = self.lock();
        let mailbox = &mut ready.sites[site];
        if !mailbox.open {
            return Err(TransportError::Closed { site });
        }
        mailbox.frames.push_back(frame);
        if !mailbox.busy {
            mailbox.busy = true;
            ready.queue.push_back(site);
            self.wake.notify_one();
        }
        Ok(())
    }

    /// Start `site` over: a new generation, an empty mailbox and a fresh
    /// reply channel, whose receiver is returned. Dropping the old
    /// sender ends a receive blocked on the old channel.
    pub(crate) fn reset(&self, site: usize) -> Receiver<Bytes> {
        let (tx, rx) = channel();
        let mut ready = self.lock();
        let mailbox = &mut ready.sites[site];
        mailbox.generation += 1;
        mailbox.frames.clear();
        mailbox.open = true;
        // Still under the queue's lock, so no job of the old generation
        // can pass the generation check and send on the old channel.
        *self.reply_slot(site) = (mailbox.generation, Some(tx));
        rx
    }

    fn reply_slot(&self, site: usize) -> MutexGuard<'_, (u64, Option<Sender<Bytes>>)> {
        self.replies[site]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stop the pool: every thread returns once its current job ends.
    pub(crate) fn stop(&self) {
        self.lock().stopped = true;
        self.wake.notify_all();
    }
}

/// The handler side of an executor, shared by its pool threads: one
/// handler per site, tagged with the generation it was built for.
pub(crate) struct Sites<'h> {
    mailboxes: Arc<Mailboxes>,
    handlers: Vec<Mutex<(u64, Handler<'h>)>>,
    make: MakeHandler<'h>,
}

impl<'h> Sites<'h> {
    /// Build every site's first handler.
    fn new(mailboxes: Arc<Mailboxes>, make: MakeHandler<'h>) -> Sites<'h> {
        let sites = mailboxes.lock().sites.len();
        let handlers = (0..sites).map(|site| Mutex::new((0, make(site)))).collect();
        Sites {
            mailboxes,
            handlers,
            make,
        }
    }

    /// One pool thread: run jobs off the ready queue until the pool is
    /// stopped.
    fn work(&self) {
        let mut ready = self.mailboxes.lock();
        loop {
            if ready.stopped {
                return;
            }
            let Some(site) = ready.queue.pop_front() else {
                ready = self
                    .mailboxes
                    .wake
                    .wait(ready)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            };
            let mailbox = &mut ready.sites[site];
            let Some(frame) = mailbox.frames.pop_front() else {
                // A reconnect emptied the mailbox after the site queued.
                mailbox.busy = false;
                continue;
            };
            let generation = mailbox.generation;
            drop(ready);
            let outcome = self.run(site, generation, frame);
            let closed = {
                let mut slot = self.mailboxes.reply_slot(site);
                match outcome {
                    _ if slot.0 != generation => false,
                    Some(reply) => {
                        if let Some(tx) = &slot.1 {
                            // The transport may be gone; nobody reads then.
                            let _ = tx.send(reply);
                        }
                        false
                    }
                    None => {
                        slot.1 = None;
                        true
                    }
                }
            };
            ready = self.mailboxes.lock();
            let mailbox = &mut ready.sites[site];
            if closed && mailbox.generation == generation {
                mailbox.open = false;
                mailbox.frames.clear();
            }
            if mailbox.frames.is_empty() {
                mailbox.busy = false;
            } else {
                ready.queue.push_back(site);
            }
        }
    }

    /// Run `site`'s handler of `generation` on `frame`, building a fresh
    /// handler first if the site was reconnected since the last job.
    /// `None` if the handler stopped, or if building or running it
    /// panicked.
    fn run(&self, site: usize, generation: u64, frame: Bytes) -> Option<Bytes> {
        // Uncontended: the site's `busy` flag admits one job at a time.
        // Nothing panics while the guard is held (the closure's panics
        // are caught inside it), so the lock is never poisoned.
        let mut slot = self.handlers[site]
            .lock()
            .expect("site handler lock poisoned");
        catch_unwind(AssertUnwindSafe(|| {
            if slot.0 != generation {
                *slot = (generation, (self.make)(site));
            }
            (slot.1)(frame)
        }))
        .unwrap_or(None)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use bytes::Bytes;

    use super::pool_size;
    use crate::transport::{InProcessTransport, Transport, TransportError};

    /// A handler that answers each frame with its site and how many
    /// frames it has handled before, and panics on `boom`.
    fn counting(site: usize) -> impl FnMut(Bytes) -> Option<Bytes> + Send {
        let mut seen = 0u8;
        move |frame: Bytes| {
            assert_ne!(frame.as_ref(), b"boom", "site {site} was told to fail");
            seen += 1;
            Some(Bytes::from(vec![site as u8, seen - 1]))
        }
    }

    #[test]
    fn every_site_answers_in_send_order_and_never_runs_twice_at_once() {
        const SITES: usize = 64;
        const SENDERS: usize = 4;
        const ROUNDS: u8 = 25;
        let running: Arc<Vec<AtomicBool>> =
            Arc::new((0..SITES).map(|_| AtomicBool::new(false)).collect());
        let reentered = Arc::new(AtomicBool::new(false));
        let transport = {
            let (running, reentered) = (Arc::clone(&running), Arc::clone(&reentered));
            InProcessTransport::pooled(SITES, move |site| {
                let (running, reentered) = (Arc::clone(&running), Arc::clone(&reentered));
                let mut next = 0u8;
                move |frame: Bytes| {
                    if running[site].swap(true, Ordering::SeqCst) {
                        reentered.store(true, Ordering::SeqCst);
                    }
                    std::thread::yield_now();
                    // The frame the handler sees is the next one sent.
                    let reply = vec![frame[0], next];
                    next = next.wrapping_add(1);
                    running[site].store(false, Ordering::SeqCst);
                    Some(Bytes::from(reply))
                }
            })
        };
        std::thread::scope(|scope| {
            for sender in 0..SENDERS {
                let transport = &transport;
                scope.spawn(move || {
                    let mine: Vec<usize> = (sender..SITES).step_by(SENDERS).collect();
                    for round in 0..ROUNDS {
                        for &site in &mine {
                            transport.send(site, Bytes::from(vec![round])).unwrap();
                        }
                    }
                    for round in 0..ROUNDS {
                        for &site in &mine {
                            let reply = transport.recv(site).unwrap();
                            assert_eq!(reply.as_ref(), [round, round], "site {site}");
                        }
                    }
                });
            }
        });
        assert!(
            !reentered.load(Ordering::SeqCst),
            "a handler ran twice at once"
        );
    }

    #[test]
    fn a_wide_fleet_runs_on_at_most_available_parallelism_threads() {
        const SITES: usize = 64;
        let threads = Arc::new(Mutex::new(HashSet::new()));
        let transport = {
            let threads = Arc::clone(&threads);
            InProcessTransport::pooled(SITES, move |_| {
                let threads = Arc::clone(&threads);
                move |frame: Bytes| {
                    let me = std::thread::current();
                    let name = me.name().unwrap_or_default().to_owned();
                    threads.lock().unwrap().insert((me.id(), name));
                    std::thread::sleep(Duration::from_millis(1));
                    Some(frame)
                }
            })
        };
        for round in 0..3u8 {
            for site in 0..SITES {
                transport.send(site, Bytes::from(vec![round])).unwrap();
            }
            for site in 0..SITES {
                assert_eq!(transport.recv(site).unwrap().as_ref(), [round]);
            }
        }
        let threads = threads.lock().unwrap();
        assert!(
            !threads.is_empty() && threads.len() <= pool_size(SITES),
            "{} threads served 64 sites on {} cores",
            threads.len(),
            pool_size(SITES)
        );
        for (_, name) in threads.iter() {
            assert!(name.starts_with("gstored-site-"), "{name}");
        }
    }

    #[test]
    fn a_panicking_handler_closes_only_its_site_until_a_reconnect() {
        let built = Arc::new(AtomicUsize::new(0));
        let transport = {
            let built = Arc::clone(&built);
            InProcessTransport::pooled(4, move |site| {
                built.fetch_add(1, Ordering::SeqCst);
                counting(site)
            })
        };
        for site in 0..4 {
            transport.send(site, Bytes::from_static(b"a")).unwrap();
            assert_eq!(transport.recv(site).unwrap().as_ref(), [site as u8, 0]);
        }
        transport.send(2, Bytes::from_static(b"boom")).unwrap();
        assert_eq!(transport.recv(2), Err(TransportError::Closed { site: 2 }));
        assert_eq!(
            transport.send(2, Bytes::from_static(b"a")),
            Err(TransportError::Closed { site: 2 })
        );
        // Every other site keeps its state and keeps serving, on the
        // same pool.
        for site in [0, 1, 3] {
            transport.send(site, Bytes::from_static(b"a")).unwrap();
            assert_eq!(transport.recv(site).unwrap().as_ref(), [site as u8, 1]);
        }
        transport.reconnect(2).unwrap();
        transport.send(2, Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            transport.recv(2).unwrap().as_ref(),
            [2, 0],
            "a reconnected site answers from fresh state"
        );
        assert_eq!(built.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn a_reconnect_drops_what_the_old_handler_still_emits() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let gate = Arc::new(Mutex::new((entered_tx, release_rx)));
        let transport = InProcessTransport::pooled(1, move |_| {
            let gate = Arc::clone(&gate);
            move |frame: Bytes| {
                if frame.as_ref() == b"slow" {
                    let gate = gate.lock().unwrap();
                    gate.0.send(()).unwrap();
                    gate.1.recv().unwrap();
                }
                Some(frame)
            }
        });
        transport.send(0, Bytes::from_static(b"slow")).unwrap();
        entered_rx.recv().unwrap();
        transport.send(0, Bytes::from_static(b"queued")).unwrap();
        transport.reconnect(0).unwrap();
        release_tx.send(()).unwrap();
        transport.send(0, Bytes::from_static(b"fresh")).unwrap();
        // Neither the running job's reply nor the frame queued behind it
        // survives the reconnect.
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"fresh");
    }

    #[test]
    fn dropping_the_transport_joins_every_pool_thread() {
        let alive = Arc::new(());
        let transport = {
            let alive = Arc::clone(&alive);
            InProcessTransport::pooled(8, move |_| {
                let alive = Arc::clone(&alive);
                move |frame: Bytes| {
                    let _ = &alive;
                    Some(frame)
                }
            })
        };
        for site in 0..8 {
            transport.send(site, Bytes::from_static(b"x")).unwrap();
            transport.recv(site).unwrap();
        }
        assert!(Arc::strong_count(&alive) > 1);
        drop(transport);
        // The handlers and their factory go with the last pool thread,
        // so nothing holds them once the drop has joined the pool.
        assert_eq!(Arc::strong_count(&alive), 1);
    }
}
