//! Offline stand-in for the slice of `crossbeam` this repository uses:
//! the multi-producer multi-consumer [`channel`]. A `Mutex<VecDeque>` plus
//! a `Condvar` instead of the published crate's lock-free queues; the
//! same stand-in is compiled on both sides of any comparison.

pub mod channel {
    //! MPMC channels with crossbeam's disconnect semantics: `recv` fails
    //! once the queue is empty and every `Sender` is gone; `send` fails
    //! once every `Receiver` is gone.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // No user code runs under this mutex, so a poisoned lock
            // still guards a consistent queue.
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (each message goes to one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The message could not be sent: every receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Why a non-blocking receive returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// Why a bounded-wait receive returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// The wait elapsed.
        Timeout,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }
    impl<T> std::error::Error for SendError<T> {}
    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `capacity` messages (at least one: the
    /// published crate's zero-capacity rendezvous is not reproduced).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(capacity.max(1)))
    }

    impl<T> Sender<T> {
        /// Queues `value`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = self
                            .shared
                            .not_full
                            .wait(state)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Takes the next message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// The channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Takes the next message if one is queued.
        ///
        /// # Errors
        ///
        /// Nothing is queued ([`TryRecvError::Disconnected`] if every
        /// sender is gone too).
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            match state.queue.pop_front() {
                Some(value) => {
                    drop(state);
                    self.shared.not_full.notify_one();
                    Ok(value)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Takes the next message, waiting at most `timeout`.
        ///
        /// # Errors
        ///
        /// The wait elapsed, or the channel is empty and disconnected.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self
                    .shared
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }

        /// Blocking iterator over messages until disconnect.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }
    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn every_message_reaches_exactly_one_receiver() {
            let (tx, rx) = unbounded::<u32>();
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.iter().map(u64::from).sum::<u64>())
                })
                .collect();
            drop(rx);
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..1_000u32 {
                            tx.send(p * 1_000 + i).expect("receivers alive");
                        }
                    })
                })
                .collect();
            drop(tx);
            for p in producers {
                p.join().expect("producer");
            }
            let total: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
            assert_eq!(total, (0..2_000u64).sum::<u64>());
        }

        #[test]
        fn disconnects_are_reported() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(1).expect("receiver alive");
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = bounded::<u8>(1);
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn bounded_send_waits_for_room() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).expect("room");
            let sender = std::thread::spawn(move || tx.send(2));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            sender.join().expect("sender").expect("delivered");
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
