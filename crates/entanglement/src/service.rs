//! The entanglement-generation service: communication-qubit pairs
//! attempting heralded generation, plus the buffer pool.

use crate::{ConsumeOrder, CutoffPolicy, EntangledLink, GenerationPattern};
use dqc_types::Tick;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the entanglement service between one pair of nodes.
///
/// The defaults reproduce the paper's §IV-A system: 10 communication-qubit
/// pairs, 10 buffer qubits per node, `psucc = 0.4`, `T_EG = 10 T_local`,
/// fresh-link fidelity 99 %, SWAP = 3 CNOTs, `1/κ = 500` CNOT units.
///
/// Setting `buffer_capacity = 0` models the paper's `original` design:
/// successful links pin their communication pair (which therefore stops
/// attempting) until consumed or discarded — the Fig. 2(c) pathology.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of communication-qubit pairs attempting in parallel.
    pub num_comm_pairs: usize,
    /// Buffer qubits per node (= bufferable links); 0 disables buffering.
    pub buffer_capacity: usize,
    /// Success probability of one generation attempt.
    pub success_probability: f64,
    /// Duration of one attempt cycle (`T_EG`).
    pub attempt_cycle: Tick,
    /// Werner fidelity of a freshly heralded link.
    pub initial_fidelity: f64,
    /// Latency of swapping a fresh link from the communication pair into
    /// buffer qubits.
    pub swap_latency: Tick,
    /// Number of comm→buffer SWAPs a node can drive simultaneously.
    /// Control electronics typically serialize these; a burst of
    /// simultaneous successes (synchronous generation) therefore queues
    /// for the swap channel, while staggered successes do not — the
    /// mechanism behind the paper's Fig. 3 argument.
    pub swap_concurrency: usize,
    /// Idling decoherence rate per tick (`κ`).
    pub kappa_per_tick: f64,
    /// Synchronous or staggered attempt scheduling.
    pub pattern: GenerationPattern,
    /// Buffer cutoff policy.
    pub cutoff: CutoffPolicy,
    /// Consumption order among available links.
    pub consume_order: ConsumeOrder,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            num_comm_pairs: 10,
            buffer_capacity: 10,
            success_probability: 0.4,
            attempt_cycle: Tick::EPR_CYCLE,
            initial_fidelity: 0.99,
            swap_latency: Tick::SWAP,
            swap_concurrency: 1,
            kappa_per_tick: 2e-4,
            pattern: GenerationPattern::Asynchronous { groups: 10 },
            cutoff: CutoffPolicy::Keep,
            consume_order: ConsumeOrder::OldestFirst,
        }
    }
}

/// Counters accumulated by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Generation attempts completed.
    pub attempts: u64,
    /// Successful attempts (links heralded).
    pub successes: u64,
    /// Links handed to remote gates.
    pub consumed: u64,
    /// Links discarded by the cutoff policy.
    pub wasted: u64,
    /// Links injected by [`EntanglementService::preinitialize`] (counted
    /// separately from heralded successes).
    pub preinitialized: u64,
    /// Total idle age of consumed links (for mean-age-at-consumption).
    pub total_consumed_age: Tick,
    /// Highest simultaneous buffer occupancy observed.
    pub peak_buffered: usize,
}

impl ServiceStats {
    /// Mean link age at consumption, in ticks.
    pub fn mean_consumed_age(&self) -> f64 {
        if self.consumed == 0 {
            0.0
        } else {
            self.total_consumed_age.ticks() as f64 / self.consumed as f64
        }
    }

    /// Serializes the counters for the machine-readable results pipeline.
    pub fn to_json(&self) -> dqc_types::Json {
        use dqc_types::Json;
        Json::object([
            ("attempts", Json::uint(self.attempts)),
            ("successes", Json::uint(self.successes)),
            ("consumed", Json::uint(self.consumed)),
            ("wasted", Json::uint(self.wasted)),
            ("preinitialized", Json::uint(self.preinitialized)),
            (
                "total_consumed_age_ticks",
                Json::Int(self.total_consumed_age.ticks()),
            ),
            ("peak_buffered", Json::from(self.peak_buffered)),
        ])
    }

    /// Reads counters back from [`ServiceStats::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`dqc_types::JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &dqc_types::Json) -> Result<Self, dqc_types::JsonError> {
        Ok(Self {
            attempts: json.u64_field("attempts")?,
            successes: json.u64_field("successes")?,
            consumed: json.u64_field("consumed")?,
            wasted: json.u64_field("wasted")?,
            preinitialized: json.u64_field("preinitialized")?,
            total_consumed_age: Tick::new(json.i64_field("total_consumed_age_ticks")?),
            peak_buffered: json.usize_field("peak_buffered")?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PairState {
    /// An attempt is in flight, completing at the associated time.
    Attempting(Tick),
    /// A success is parked on the communication pair (no buffer slot);
    /// the pair cannot attempt until the link is consumed or discarded.
    Holding(EntangledLink),
}

#[derive(Debug, Clone, Copy)]
struct BufferedLink {
    link: EntangledLink,
    ready_at: Tick,
}

/// A consumed link, as handed to a remote gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TakenLink {
    /// The Werner fidelity at the moment of consumption.
    pub fidelity: f64,
    /// Idle time between heralding and consumption.
    pub age: Tick,
}

/// Discrete-event simulation of heralded entanglement generation between
/// two nodes (the paper's §III architecture), supporting every design of
/// §V: buffered or not, synchronous or asynchronous, with optional
/// pre-initialization and cutoff.
///
/// # Event order
///
/// Events run in ascending `(time, kind, index)` order, with kinds ranked
/// attempt completion < parked-link expiry < buffered-link expiry <
/// swap-in done, and `index` the communication pair or buffer slot. A
/// completion draws from the service's RNG exactly once, so this order
/// fixes the draw sequence and every result is reproducible per seed.
///
/// # Cost
///
/// Pending pair events and swap-in completions sit in binary min-heaps
/// and the earliest buffer expiry is cached, so finding and running one
/// event is O(log n) in the number of pairs and buffer slots. Two steps
/// stay linear: a buffer-expiry cutoff recomputes its cached minimum
/// after a link leaves the buffer, and a freed buffer slot looks for the
/// oldest parked link when some pair is parking one. [`available`] is
/// O(1); [`try_take`] scans the ready links once without allocating.
///
/// [`available`]: EntanglementService::available
/// [`try_take`]: EntanglementService::try_take
///
/// # Examples
///
/// ```
/// use dqc_entanglement::{EntanglementService, ServiceConfig};
/// use dqc_types::Tick;
///
/// let mut svc = EntanglementService::new(ServiceConfig::default(), 7);
/// // Ask for a link as soon as one exists:
/// let t = svc.time_of_next_available(Tick::ZERO);
/// let link = svc.try_take(t).expect("a link is available at t");
/// assert!(link.fidelity > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct EntanglementService {
    config: ServiceConfig,
    pairs: Vec<PairState>,
    offsets: Vec<Tick>,
    buffer: Vec<BufferedLink>,
    now: Tick,
    stats: ServiceStats,
    arrivals: Vec<Tick>,
    swap_free_at: Vec<Tick>,
    rng: ChaCha8Rng,
    /// `Completion` / `HeldExpiry` events keyed `(time, kind)`. An entry
    /// is live while its pair is still in the state that scheduled it;
    /// stale entries are dropped when they reach the top.
    pair_events: BinaryHeap<Reverse<(Tick, EventKind)>>,
    /// The earliest buffer expiry and its slot, lowest slot on ties;
    /// `None` without a cutoff or with an empty buffer.
    next_buffer_expiry: Option<(Tick, usize)>,
    /// Ready times of buffered links still being swapped in.
    swaps_in_flight: BinaryHeap<Reverse<Tick>>,
    /// Ready times of links that expired mid-swap, each matching one
    /// entry of `swaps_in_flight` that is dropped when it reaches the top.
    swaps_cancelled: BinaryHeap<Reverse<Tick>>,
    /// Number of pairs parking a link.
    held: usize,
}

impl EntanglementService {
    /// Creates a service at time zero; all pairs start their first attempt
    /// at their pattern offset.
    pub fn new(config: ServiceConfig, seed: u64) -> Self {
        let offsets: Vec<Tick> = (0..config.num_comm_pairs)
            .map(|i| config.pattern.offset(i, config.attempt_cycle))
            .collect();
        let pairs = offsets
            .iter()
            .map(|&off| PairState::Attempting(off + config.attempt_cycle))
            .collect();
        let pair_events = offsets
            .iter()
            .enumerate()
            .map(|(i, &off)| Reverse((off + config.attempt_cycle, EventKind::Completion(i))))
            .collect();
        Self {
            pairs,
            offsets,
            buffer: Vec::with_capacity(config.buffer_capacity),
            now: Tick::ZERO,
            stats: ServiceStats::default(),
            arrivals: Vec::new(),
            swap_free_at: vec![Tick::ZERO; config.swap_concurrency.max(1)],
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pair_events,
            next_buffer_expiry: None,
            swaps_in_flight: BinaryHeap::new(),
            swaps_cancelled: BinaryHeap::new(),
            held: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Heralding timestamps of every link generated so far (used by the
    /// Fig. 3 arrival-pattern reproduction).
    pub fn arrivals(&self) -> &[Tick] {
        &self.arrivals
    }

    /// Current simulation time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Pre-fills the buffer with `n` fresh links at time zero (the
    /// `init_buf` design). Links beyond the buffer capacity are ignored.
    ///
    /// # Panics
    ///
    /// Panics if called after time has advanced.
    pub fn preinitialize(&mut self, n: usize) {
        assert!(self.now.is_zero(), "preinitialization must happen at t = 0");
        let room = self
            .config
            .buffer_capacity
            .saturating_sub(self.buffer.len());
        for _ in 0..n.min(room) {
            let link = EntangledLink::new(Tick::ZERO, self.config.initial_fidelity);
            self.push_buffered(link, Tick::ZERO);
            self.stats.preinitialized += 1;
        }
    }

    /// Advances the simulation clock to `t`, processing every attempt
    /// completion and cutoff expiry in chronological order.
    pub fn advance_to(&mut self, t: Tick) {
        while let Some((event_time, kind)) = self.next_event() {
            if event_time > t {
                break;
            }
            self.process_event(event_time, kind);
        }
        self.set_now(t);
    }

    /// Number of links consumable right now.
    pub fn available(&self) -> usize {
        let swapping = self.swaps_in_flight.len() - self.swaps_cancelled.len();
        self.buffer.len() - swapping + self.held
    }

    /// Advances to `t` and consumes one link if available, preferring the
    /// configured [`ConsumeOrder`].
    pub fn try_take(&mut self, t: Tick) -> Option<TakenLink> {
        self.advance_to(t);
        self.take_ready()
    }

    /// Returns the earliest time `≥ from` at which a link is available,
    /// advancing the simulation there. Returns [`Tick::MAX`] when no link
    /// can ever be produced (no communication pairs).
    pub fn time_of_next_available(&mut self, from: Tick) -> Tick {
        self.advance_to(from);
        loop {
            if self.available() > 0 {
                return self.now.max(from);
            }
            let Some((event_time, kind)) = self.next_event() else {
                return Tick::MAX;
            };
            self.process_event(event_time, kind);
        }
    }

    /// Consumes the first link available at or after `from` and returns
    /// it with its grant time: [`time_of_next_available`] followed by
    /// [`try_take`] at that time, in one call. Events still queued at the
    /// grant instant run before the take, exactly as `try_take` runs
    /// them. Returns `None` when no link can ever be produced.
    ///
    /// [`time_of_next_available`]: EntanglementService::time_of_next_available
    /// [`try_take`]: EntanglementService::try_take
    pub fn take_next(&mut self, mut from: Tick) -> Option<(Tick, TakenLink)> {
        loop {
            let t = self.time_of_next_available(from);
            if t == Tick::MAX {
                return None;
            }
            self.advance_to(t);
            if let Some(link) = self.take_ready() {
                return Some((t, link));
            }
            // The rest of the instant expired or re-swapped the link that
            // made `t` available; wait for the next one.
            from = t;
        }
    }

    // ----- internals -----

    /// Moves the clock forward to `t` (never back) and retires the
    /// swap-ins that have completed by then.
    fn set_now(&mut self, t: Tick) {
        self.now = self.now.max(t);
        self.settle_swaps();
    }

    /// Pops in-flight swap-ins that are done by `now` or were cancelled,
    /// so the heap top is the next live `SwapDone` and the live count is
    /// `swaps_in_flight.len() - swaps_cancelled.len()`.
    fn settle_swaps(&mut self) {
        while let Some(&Reverse(ready)) = self.swaps_in_flight.peek() {
            let cancelled = self.swaps_cancelled.peek() == Some(&Reverse(ready));
            if ready > self.now && !cancelled {
                break;
            }
            self.swaps_in_flight.pop();
            if cancelled {
                self.swaps_cancelled.pop();
            }
        }
    }

    fn next_event(&mut self) -> Option<(Tick, EventKind)> {
        while let Some(&Reverse((time, kind))) = self.pair_events.peek() {
            if self.pair_event_is_live(time, kind) {
                break;
            }
            self.pair_events.pop();
        }
        let pair = self.pair_events.peek().map(|&Reverse(event)| event);
        let expiry = self
            .next_buffer_expiry
            .map(|(time, i)| (time, EventKind::BufferExpiry(i)));
        // Buffered links still being swapped in become available later;
        // that is an "event" for time_of_next_available.
        let swap = self
            .swaps_in_flight
            .peek()
            .map(|&Reverse(time)| (time, EventKind::SwapDone));
        [pair, expiry, swap].into_iter().flatten().min()
    }

    fn pair_event_is_live(&self, time: Tick, kind: EventKind) -> bool {
        match kind {
            EventKind::Completion(i) => self.pairs[i] == PairState::Attempting(time),
            EventKind::HeldExpiry(i) => matches!(
                self.pairs[i],
                PairState::Holding(link) if self.expiry(&link) == Some(time)
            ),
            EventKind::BufferExpiry(_) | EventKind::SwapDone => {
                unreachable!("only pair events are queued in pair_events")
            }
        }
    }

    fn process_event(&mut self, time: Tick, kind: EventKind) {
        self.set_now(time);
        match kind {
            EventKind::Completion(i) => {
                self.pop_pair_event(time, kind);
                self.complete_attempt(i, time);
            }
            EventKind::HeldExpiry(i) => {
                self.pop_pair_event(time, kind);
                self.stats.wasted += 1;
                self.resume_pair(i, time);
            }
            EventKind::BufferExpiry(i) => {
                self.stats.wasted += 1;
                self.remove_buffered(i);
                self.unpark_held_links();
            }
            // `set_now` already retired the swap-in.
            EventKind::SwapDone => {}
        }
    }

    fn pop_pair_event(&mut self, time: Tick, kind: EventKind) {
        let popped = self.pair_events.pop();
        debug_assert_eq!(popped, Some(Reverse((time, kind))), "event is the heap top");
    }

    /// When a link stops being kept under the cutoff policy.
    fn expiry(&self, link: &EntangledLink) -> Option<Tick> {
        match self.config.cutoff {
            CutoffPolicy::Keep => None,
            CutoffPolicy::MaxAge(max) => Some(link.created_at() + max + Tick::new(1)),
        }
    }

    fn complete_attempt(&mut self, i: usize, time: Tick) {
        self.stats.attempts += 1;
        let success = self
            .rng
            .random_bool(self.config.success_probability.clamp(0.0, 1.0));
        if !success {
            self.set_pair(i, PairState::Attempting(time + self.config.attempt_cycle));
            return;
        }
        self.stats.successes += 1;
        self.arrivals.push(time);
        let link = EntangledLink::new(time, self.config.initial_fidelity);
        if self.buffer.len() < self.config.buffer_capacity {
            let ready_at = self.allocate_swap(time);
            self.push_buffered(link, ready_at);
            // The communication pair is busy for the swap, then resumes at
            // the next slot of its pattern.
            self.resume_pair(i, ready_at);
        } else {
            // No buffer slot: the pair parks the link and stalls.
            self.set_pair(i, PairState::Holding(link));
        }
    }

    /// Reserves the earliest-free swap channel starting no earlier than
    /// `at`; returns the swap completion time. Simultaneous successes
    /// (synchronous bursts) queue here.
    fn allocate_swap(&mut self, at: Tick) -> Tick {
        let channel = self
            .swap_free_at
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("at least one swap channel");
        let start = at.max(*channel);
        let done = start + self.config.swap_latency;
        *channel = done;
        done
    }

    /// Restarts attempts on pair `i`, aligned to its pattern slot at or
    /// after `at`.
    fn resume_pair(&mut self, i: usize, at: Tick) {
        let cycle = self.config.attempt_cycle;
        let offset = self.offsets[i];
        // First slot start ≥ at with start ≡ offset (mod cycle).
        let shifted = at.saturating_sub(offset);
        let start = offset + shifted.next_multiple_of(cycle);
        self.set_pair(i, PairState::Attempting(start + cycle));
    }

    /// Puts pair `i` into `state`, keeping the parked-link count and the
    /// pair-event heap in step.
    fn set_pair(&mut self, i: usize, state: PairState) {
        if matches!(self.pairs[i], PairState::Holding(_)) {
            self.held -= 1;
        }
        self.pairs[i] = state;
        match state {
            PairState::Attempting(done) => {
                self.pair_events
                    .push(Reverse((done, EventKind::Completion(i))));
            }
            PairState::Holding(link) => {
                self.held += 1;
                if let Some(expiry) = self.expiry(&link) {
                    self.pair_events
                        .push(Reverse((expiry, EventKind::HeldExpiry(i))));
                }
            }
        }
    }

    /// Appends a link to the buffer, ready for consumption at `ready_at`.
    fn push_buffered(&mut self, link: EntangledLink, ready_at: Tick) {
        let slot = self.buffer.len();
        self.buffer.push(BufferedLink { link, ready_at });
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
        // The new slot is the highest, so it only wins a strictly earlier
        // expiry.
        if let Some(expiry) = self.expiry(&link) {
            if self.next_buffer_expiry.is_none_or(|(t, _)| expiry < t) {
                self.next_buffer_expiry = Some((expiry, slot));
            }
        }
        if ready_at > self.now {
            self.swaps_in_flight.push(Reverse(ready_at));
        }
    }

    /// Removes buffer slot `i` (the last slot moves into its place).
    fn remove_buffered(&mut self, i: usize) -> BufferedLink {
        let removed = self.buffer.swap_remove(i);
        if removed.ready_at > self.now {
            self.swaps_cancelled.push(Reverse(removed.ready_at));
            self.settle_swaps();
        }
        if matches!(self.config.cutoff, CutoffPolicy::MaxAge(_)) {
            self.next_buffer_expiry = self
                .buffer
                .iter()
                .enumerate()
                .filter_map(|(slot, b)| Some((self.expiry(&b.link)?, slot)))
                .min();
        }
        removed
    }

    /// Consumes the preferred link available at `now`, if any.
    fn take_ready(&mut self) -> Option<TakenLink> {
        let now = self.now;
        // Candidates: (created_at, from_pair, buffer slot or pair index).
        let buffered = self
            .buffer
            .iter()
            .enumerate()
            .filter(|(_, b)| b.ready_at <= now)
            .map(|(i, b)| (b.link.created_at(), false, i));
        let parked: &[PairState] = if self.held > 0 { &self.pairs } else { &[] };
        let held = parked.iter().enumerate().filter_map(|(i, p)| match p {
            PairState::Holding(link) => Some((link.created_at(), true, i)),
            PairState::Attempting(_) => None,
        });
        let candidates = buffered.chain(held);
        let (_, from_pair, idx) = match self.config.consume_order {
            ConsumeOrder::OldestFirst => candidates.min(),
            ConsumeOrder::FreshestFirst => candidates.max_by_key(|&(c, p, i)| (c, !p, i)),
        }?;
        let link = if from_pair {
            let PairState::Holding(link) = self.pairs[idx] else {
                unreachable!("candidate source checked above")
            };
            self.resume_pair(idx, now);
            link
        } else {
            let b = self.remove_buffered(idx);
            self.unpark_held_links();
            b.link
        };
        let age = link.age(now);
        self.stats.consumed += 1;
        self.stats.total_consumed_age += age;
        Some(TakenLink {
            fidelity: link.fidelity_at(now, self.config.kappa_per_tick),
            age,
        })
    }

    /// After a buffer slot frees, move the oldest parked link (if any)
    /// into the buffer.
    fn unpark_held_links(&mut self) {
        if self.held == 0 || self.buffer.len() >= self.config.buffer_capacity {
            return;
        }
        let held = self
            .pairs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PairState::Holding(link) => Some((link.created_at(), i, *link)),
                PairState::Attempting(_) => None,
            })
            .min_by_key(|(created, i, _)| (*created, *i));
        if let Some((_, i, link)) = held {
            let ready = self.allocate_swap(self.now);
            self.push_buffered(link, ready);
            self.resume_pair(i, ready);
        }
    }
}

/// What an event does, ordered as the processing order at equal times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Pair `i`'s attempt completes.
    Completion(usize),
    /// The link parked on pair `i` passes the cutoff.
    HeldExpiry(usize),
    /// The link in buffer slot `i` passes the cutoff.
    BufferExpiry(usize),
    /// A swap-in completes. It sorts last and changes nothing but the
    /// clock, so which link it readies never matters.
    SwapDone,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_config() -> ServiceConfig {
        ServiceConfig {
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        }
    }

    /// Cross-checks the incremental bookkeeping against full rescans of
    /// the pairs and the buffer.
    fn assert_consistent(svc: &EntanglementService) {
        let ready = svc.buffer.iter().filter(|b| b.ready_at <= svc.now).count();
        let held = svc
            .pairs
            .iter()
            .filter(|p| matches!(p, PairState::Holding(_)))
            .count();
        assert_eq!(svc.available(), ready + held, "at {}", svc.now);
        let expiry = svc
            .buffer
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Some((svc.expiry(&b.link)?, i)))
            .min();
        assert_eq!(svc.next_buffer_expiry, expiry, "at {}", svc.now);
        let next_swap = svc
            .buffer
            .iter()
            .map(|b| b.ready_at)
            .filter(|&r| r > svc.now)
            .min();
        assert_eq!(
            svc.swaps_in_flight.peek().map(|r| r.0),
            next_swap,
            "at {}",
            svc.now
        );
    }

    #[test]
    fn incremental_bookkeeping_matches_a_rescan() {
        // One slow swap channel and a short cutoff, so links expire while
        // parked, buffered and still mid-swap.
        for (seed, order) in [
            (21, ConsumeOrder::OldestFirst),
            (22, ConsumeOrder::FreshestFirst),
        ] {
            let cfg = ServiceConfig {
                num_comm_pairs: 6,
                buffer_capacity: 4,
                swap_latency: Tick::new(45),
                cutoff: CutoffPolicy::MaxAge(Tick::new(150)),
                pattern: GenerationPattern::Synchronous,
                consume_order: order,
                ..ServiceConfig::default()
            };
            let mut svc = EntanglementService::new(cfg, seed);
            svc.preinitialize(2);
            let mut expires_mid_swap = false;
            let mut t = Tick::ZERO;
            for step in 0..2000_i64 {
                t += Tick::new(7 + step % 53);
                if step % 3 == 0 {
                    let _ = svc.try_take(t);
                } else {
                    svc.advance_to(t);
                }
                assert_consistent(&svc);
                expires_mid_swap |= svc
                    .buffer
                    .iter()
                    .any(|b| svc.expiry(&b.link).is_some_and(|e| e < b.ready_at));
                if step % 5 == 0 {
                    if let Some((granted, _)) = svc.take_next(t) {
                        t = granted;
                    }
                    assert_consistent(&svc);
                }
            }
            assert!(expires_mid_swap, "the script must cancel a swap-in");
            assert!(svc.stats().wasted > 0);
        }
    }

    #[test]
    fn first_links_arrive_after_one_cycle() {
        let mut svc = EntanglementService::new(sync_config(), 1);
        svc.advance_to(Tick::new(99));
        assert_eq!(svc.available(), 0, "nothing before the first completion");
        let t = svc.time_of_next_available(Tick::ZERO);
        // Synchronous: every attempt completes at t=100; with psucc=0.4 and
        // 10 pairs a success at 100 is near-certain; availability follows
        // after the swap.
        assert_eq!(t, Tick::new(100 + 30));
    }

    #[test]
    fn synchronous_arrivals_are_bursty() {
        // Large buffer so pairs never stall while nobody consumes.
        let cfg = ServiceConfig {
            buffer_capacity: 1000,
            ..sync_config()
        };
        let mut svc = EntanglementService::new(cfg, 2);
        svc.advance_to(Tick::new(2000));
        for &a in svc.arrivals() {
            assert_eq!(a.ticks() % 100, 0, "sync arrivals only at cycle boundaries");
        }
        assert!(svc.stats().successes > 20, "got {}", svc.stats().successes);
    }

    #[test]
    fn full_buffer_stalls_pairs() {
        // Default capacity 10 and no consumption: 10 buffered + 10 held
        // saturate the service and successes stop.
        let mut svc = EntanglementService::new(sync_config(), 2);
        svc.advance_to(Tick::new(20_000));
        assert_eq!(svc.available(), 20);
        let frozen = svc.stats().successes;
        svc.advance_to(Tick::new(40_000));
        assert_eq!(svc.stats().successes, frozen, "saturated service stops");
    }

    #[test]
    fn asynchronous_arrivals_are_spread() {
        let cfg = ServiceConfig {
            pattern: GenerationPattern::Asynchronous { groups: 10 },
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 3);
        svc.advance_to(Tick::new(5000));
        let mut seen_offsets: std::collections::HashSet<i64> = std::collections::HashSet::new();
        for &a in svc.arrivals() {
            seen_offsets.insert(a.ticks() % 100);
        }
        assert!(
            seen_offsets.len() >= 5,
            "staggered groups should populate many phases: {seen_offsets:?}"
        );
    }

    #[test]
    fn statistics_balance() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 4);
        let mut taken = 0;
        let mut t = Tick::ZERO;
        for _ in 0..20 {
            t = svc.time_of_next_available(t);
            if svc.try_take(t).is_some() {
                taken += 1;
            }
        }
        let s = *svc.stats();
        assert_eq!(s.consumed, taken);
        assert!(s.successes >= s.consumed + s.wasted);
        assert!(s.attempts >= s.successes);
    }

    #[test]
    fn bufferless_pairs_stall_while_holding() {
        let cfg = ServiceConfig {
            buffer_capacity: 0,
            num_comm_pairs: 2,
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 5);
        // Run long enough that both pairs have succeeded once.
        svc.advance_to(Tick::new(3000));
        let held = svc.available();
        assert_eq!(held, 2, "both pairs should be parked on successes");
        let attempts_frozen = svc.stats().attempts;
        svc.advance_to(Tick::new(6000));
        assert_eq!(
            svc.stats().attempts,
            attempts_frozen,
            "holding pairs must not keep attempting"
        );
        // Consuming frees a pair, which resumes attempting.
        let _ = svc.try_take(Tick::new(6000)).expect("held link");
        svc.advance_to(Tick::new(9000));
        assert!(svc.stats().attempts > attempts_frozen);
    }

    #[test]
    fn buffered_pairs_keep_attempting() {
        let cfg = ServiceConfig {
            num_comm_pairs: 4,
            buffer_capacity: 100,
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 6);
        svc.advance_to(Tick::new(10_000));
        // A failure retries next cycle; a success also costs the swap, so
        // the expected attempt spacing is ≈ 0.6·T + 0.4·2T = 1.4·T, giving
        // ≈ 4 · 10000/140 ≈ 285 attempts. The point: no long-term stall.
        assert!(
            svc.stats().attempts >= 240,
            "attempts = {}",
            svc.stats().attempts
        );
        assert!(svc.available() > 10);
    }

    #[test]
    fn cutoff_discards_and_counts_waste() {
        let cfg = ServiceConfig {
            num_comm_pairs: 4,
            buffer_capacity: 10,
            cutoff: CutoffPolicy::MaxAge(Tick::new(200)),
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 7);
        svc.advance_to(Tick::new(5000));
        assert!(svc.stats().wasted > 0, "idle links must expire");
        // All remaining available links are younger than the cutoff.
        assert!(svc.available() <= 10);
    }

    #[test]
    fn preinitialized_links_available_at_time_zero() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 8);
        svc.preinitialize(10);
        assert_eq!(svc.available(), 10);
        let link = svc.try_take(Tick::ZERO).unwrap();
        assert_eq!(link.fidelity, 0.99, "no decay at t = 0");
        assert_eq!(svc.available(), 9);
    }

    #[test]
    fn preinitialize_caps_at_capacity() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 9);
        svc.preinitialize(50);
        assert_eq!(svc.available(), 10);
    }

    #[test]
    fn consumed_fidelity_decays_with_wait() {
        // No generation: only the two pre-initialized links exist.
        let cfg = ServiceConfig {
            num_comm_pairs: 0,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 10);
        svc.preinitialize(2);
        let fresh = svc.try_take(Tick::ZERO).unwrap();
        let stale = svc.try_take(Tick::new(5000)).unwrap();
        assert!(stale.fidelity < fresh.fidelity);
        assert_eq!(stale.age, Tick::new(5000));
    }

    #[test]
    fn oldest_first_ordering() {
        let cfg = ServiceConfig {
            consume_order: ConsumeOrder::OldestFirst,
            ..Default::default()
        };
        let mut svc = EntanglementService::new(cfg, 11);
        let t1 = svc.time_of_next_available(Tick::ZERO);
        let t2 = svc.time_of_next_available(t1 + Tick::new(500));
        let taken = svc.try_take(t2).unwrap();
        // The first-generated link is consumed first, so its age is the
        // larger of the two.
        assert!(taken.age >= Tick::new(500) || svc.stats().successes == 1);
    }

    #[test]
    fn no_pairs_means_never_available() {
        let cfg = ServiceConfig {
            num_comm_pairs: 0,
            ..Default::default()
        };
        let mut svc = EntanglementService::new(cfg, 12);
        assert_eq!(svc.time_of_next_available(Tick::ZERO), Tick::MAX);
        assert!(svc.try_take(Tick::new(100)).is_none());
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut svc = EntanglementService::new(ServiceConfig::default(), seed);
            svc.advance_to(Tick::new(3000));
            (svc.stats().successes, svc.arrivals().to_vec())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn async_smooths_peak_buffer_occupancy() {
        // The paper's Fig. 3 claim, measured: with the same consumption
        // pattern, async arrivals keep fewer links waiting at once.
        let consume_every = Tick::new(25);
        let run = |pattern| {
            let cfg = ServiceConfig {
                pattern,
                buffer_capacity: 40,
                ..ServiceConfig::default()
            };
            let mut svc = EntanglementService::new(cfg, 99);
            let mut t = Tick::ZERO;
            for _ in 0..200 {
                t += consume_every;
                let _ = svc.try_take(t);
            }
            svc.stats().peak_buffered
        };
        let sync_peak = run(GenerationPattern::Synchronous);
        let async_peak = run(GenerationPattern::Asynchronous { groups: 10 });
        assert!(
            async_peak <= sync_peak,
            "async peak {async_peak} should not exceed sync peak {sync_peak}"
        );
    }
}
