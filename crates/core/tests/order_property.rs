//! Property test for the order tracker's pending-row closure.
//!
//! `OrderTracker` caches reachability only for pending routines and
//! recycles the columns no pending routine reaches (see `order`). This
//! test runs seeded random operation sequences shaped like what EV and
//! PSV do: registrations with lineage and committed-last-user edges,
//! failure and restart events with rule-2 and rule-3 edges, PSV's
//! rule-3* late edge from a pending routine into an older failure,
//! commits and aborts. After every operation, `reaches` from every
//! pending routine (and from a few other nodes) to every node, and
//! `placement_conflicts` on random pre/post sets, must answer what a
//! naive DFS over the full edge list answers, and `check_invariants`
//! must hold. At the end `witness_order` must equal a naive Kahn sort
//! with the same tie-break.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::TestRng;
use safehome_core::order::{OrderNode, OrderTracker};
use safehome_types::{trace::OrderItem, DeviceId, RoutineId, Timestamp};

const DEVICES: u64 = 3;

/// The reference: the full edge list, walked naively.
#[derive(Default)]
struct Naive {
    edges: BTreeSet<(OrderNode, OrderNode)>,
    /// The witness order's nodes: committed routines and every event,
    /// with each event's device.
    committed: BTreeMap<OrderNode, Option<DeviceId>>,
}

impl Naive {
    fn successors(&self, n: OrderNode) -> impl Iterator<Item = OrderNode> + '_ {
        self.edges
            .range((n, OrderNode::Routine(RoutineId(0)))..)
            .take_while(move |&&(a, _)| a == n)
            .map(|&(_, b)| b)
    }

    fn reach(&self, from: OrderNode) -> BTreeSet<OrderNode> {
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for m in self.successors(n) {
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen
    }

    fn remove(&mut self, n: OrderNode) {
        self.edges.retain(|&(a, b)| a != n && b != n);
        self.committed.remove(&n);
    }

    /// Kahn's algorithm over the committed nodes: the smallest ready node
    /// first, routines by id before events by sequence number.
    fn kahn(&self) -> Vec<OrderItem> {
        fn key(n: OrderNode) -> (u8, u64) {
            match n {
                OrderNode::Routine(r) => (0, r.raw()),
                OrderNode::Failure(s) | OrderNode::Restart(s) => (1, s as u64),
            }
        }
        let mut indegree: BTreeMap<OrderNode, usize> =
            self.committed.keys().map(|&n| (n, 0)).collect();
        for &(a, b) in &self.edges {
            if self.committed.contains_key(&a) && self.committed.contains_key(&b) {
                *indegree.get_mut(&b).expect("committed") += 1;
            }
        }
        let mut out = Vec::new();
        while let Some(n) = indegree
            .iter()
            .filter(|(_, &deg)| deg == 0)
            .map(|(&n, _)| n)
            .min_by_key(|&n| key(n))
        {
            indegree.remove(&n);
            for m in self.successors(n) {
                if let Some(deg) = indegree.get_mut(&m) {
                    *deg -= 1;
                }
            }
            out.push(match (n, self.committed[&n]) {
                (OrderNode::Routine(r), _) => OrderItem::Routine(r),
                (OrderNode::Failure(_), Some(d)) => OrderItem::Failure(d),
                (OrderNode::Restart(_), Some(d)) => OrderItem::Restart(d),
                (n, None) => panic!("event {n:?} without a device"),
            });
        }
        assert!(indegree.is_empty(), "reference graph has a cycle");
        out
    }
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> Option<T> {
    (!from.is_empty()).then(|| from[rng.below(from.len() as u64) as usize])
}

struct Sim {
    ord: OrderTracker,
    naive: Naive,
    rng: TestRng,
    now: u64,
    next_id: u64,
    pending: Vec<RoutineId>,
    committed: Vec<RoutineId>,
    /// Every node ever created, removed routines included.
    nodes: Vec<OrderNode>,
    last_committed: BTreeMap<DeviceId, RoutineId>,
    last_event: BTreeMap<DeviceId, OrderNode>,
    event_log: BTreeMap<DeviceId, Vec<OrderNode>>,
    failures: Vec<OrderNode>,
    down: BTreeSet<DeviceId>,
}

impl Sim {
    fn new(seed: u64) -> Self {
        Sim {
            ord: OrderTracker::new(),
            naive: Naive::default(),
            rng: TestRng::new(seed),
            now: 0,
            next_id: 1,
            pending: Vec::new(),
            committed: Vec::new(),
            // A routine the tracker never hears of.
            nodes: vec![OrderNode::Routine(RoutineId(u64::MAX))],
            last_committed: BTreeMap::new(),
            last_event: BTreeMap::new(),
            event_log: BTreeMap::new(),
            failures: Vec::new(),
            down: BTreeSet::new(),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.below(100) < percent
    }

    fn device(&mut self) -> DeviceId {
        DeviceId(self.rng.below(DEVICES) as u32)
    }

    /// Adds `a → b` to both sides unless it would close a cycle, as the
    /// schedulers' placement test guarantees for the real models.
    fn edge(&mut self, a: OrderNode, b: OrderNode) {
        if a == b || self.naive.reach(b).contains(&a) {
            return;
        }
        self.ord.add_edge(a, b);
        self.naive.edges.insert((a, b));
    }

    fn step(&mut self) {
        self.now += 1 + self.rng.below(50);
        match self.below(100) {
            0..=29 => self.register(),
            30..=39 => {
                // A lineage edge between two pending routines.
                if let (Some(a), Some(b)) = (
                    pick(&mut self.rng, &self.pending),
                    pick(&mut self.rng, &self.pending),
                ) {
                    self.edge(OrderNode::Routine(a), OrderNode::Routine(b));
                }
            }
            40..=49 => self.event(),
            50..=57 => {
                // Rule 2: a first touch after events on the device.
                if let Some(r) = pick(&mut self.rng, &self.pending) {
                    let d = self.device();
                    for ev in self.event_log.get(&d).cloned().unwrap_or_default() {
                        self.edge(ev, OrderNode::Routine(r));
                    }
                }
            }
            58..=62 => {
                // Rule 3*: a late edge into an older failure.
                if let (Some(r), Some(f)) = (
                    pick(&mut self.rng, &self.pending),
                    pick(&mut self.rng, &self.failures),
                ) {
                    self.edge(OrderNode::Routine(r), f);
                }
            }
            63..=67 => {
                // A committed routine ordered before a pending one.
                if let (Some(c), Some(r)) = (
                    pick(&mut self.rng, &self.committed),
                    pick(&mut self.rng, &self.pending),
                ) {
                    self.edge(OrderNode::Routine(c), OrderNode::Routine(r));
                }
            }
            68..=87 => self.commit(),
            _ => self.abort(),
        }
    }

    fn register(&mut self) {
        let id = RoutineId(self.next_id);
        self.next_id += 1;
        let node = OrderNode::Routine(id);
        self.ord.add_routine(id, Timestamp::from_millis(self.now));
        self.nodes.push(node);
        // Serialize after the committed last users of its devices and
        // around pending lineage owners (after some, before others, as a
        // pre-lease places it).
        for _ in 0..1 + self.below(2) {
            let d = self.device();
            if let Some(&prev) = self.last_committed.get(&d) {
                self.edge(OrderNode::Routine(prev), node);
            }
        }
        for _ in 0..self.below(3) {
            if let Some(p) = pick(&mut self.rng, &self.pending) {
                if self.chance(70) {
                    self.edge(OrderNode::Routine(p), node);
                } else {
                    self.edge(node, OrderNode::Routine(p));
                }
            }
        }
        self.pending.push(id);
    }

    fn event(&mut self) {
        let d = self.device();
        let at = Timestamp::from_millis(self.now);
        let node = if self.down.remove(&d) {
            self.ord.new_restart(d, at)
        } else {
            self.down.insert(d);
            self.ord.new_failure(d, at)
        };
        self.nodes.push(node);
        self.naive.committed.insert(node, Some(d));
        if let Some(prev) = self.last_event.insert(d, node) {
            self.edge(prev, node);
        }
        self.event_log.entry(d).or_default().push(node);
        if matches!(node, OrderNode::Failure(_)) {
            self.failures.push(node);
            // Rule 3: routines done with the device serialize before it.
            for _ in 0..self.below(3) {
                if let Some(r) = pick(&mut self.rng, &self.pending) {
                    self.edge(OrderNode::Routine(r), node);
                }
            }
        }
    }

    fn commit(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let i = self.below(self.pending.len());
        let r = self.pending.remove(i);
        self.ord.mark_committed(r, Timestamp::from_millis(self.now));
        self.naive.committed.insert(OrderNode::Routine(r), None);
        self.committed.push(r);
        let d = self.device();
        self.last_committed.insert(d, r);
    }

    fn abort(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let i = self.below(self.pending.len());
        let r = self.pending.remove(i);
        self.ord.remove_routine(r);
        self.naive.remove(OrderNode::Routine(r));
    }

    fn check(&mut self, context: &str) -> Result<(), String> {
        self.ord
            .check_invariants()
            .map_err(|e| format!("{context}: {e}"))?;
        let mut sources: Vec<OrderNode> = self
            .pending
            .iter()
            .map(|&r| OrderNode::Routine(r))
            .collect();
        for _ in 0..2 {
            if let Some(n) = pick(&mut self.rng, &self.nodes) {
                sources.push(n);
            }
        }
        for from in sources {
            let want = self.naive.reach(from);
            for &to in &self.nodes {
                prop_assert_eq!(
                    self.ord.reaches(from, to),
                    want.contains(&to),
                    "{}: reaches({:?}, {:?})",
                    context,
                    from,
                    to
                );
            }
        }
        let routines: Vec<RoutineId> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                OrderNode::Routine(r) => Some(*r),
                _ => None,
            })
            .collect();
        for _ in 0..3 {
            let pre: Vec<RoutineId> = (0..self.below(4))
                .filter_map(|_| pick(&mut self.rng, &routines))
                .collect();
            let post: Vec<RoutineId> = (0..self.below(4))
                .filter_map(|_| {
                    if self.chance(80) {
                        pick(&mut self.rng, &self.pending)
                    } else {
                        pick(&mut self.rng, &routines)
                    }
                })
                .collect();
            let want = post.iter().any(|&q| {
                let reach = self.naive.reach(OrderNode::Routine(q));
                pre.iter().any(|&p| reach.contains(&OrderNode::Routine(p)))
            });
            prop_assert_eq!(
                self.ord.placement_conflicts(&pre, &post),
                want,
                "{}: placement_conflicts({:?}, {:?})",
                context,
                pre,
                post
            );
        }
        Ok(())
    }
}

fn run_case(seed: u64, ops: usize) -> Result<(), String> {
    let mut sim = Sim::new(seed);
    for op in 0..ops {
        sim.step();
        sim.check(&format!("op {op}"))?;
    }
    while !sim.pending.is_empty() {
        sim.commit();
        sim.check("final commits")?;
    }
    prop_assert_eq!(sim.ord.witness_order(), sim.naive.kahn());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pending_row_closure_matches_naive_walk(seed in any::<u64>(), ops in 40usize..220) {
        run_case(seed, ops)?;
    }
}
