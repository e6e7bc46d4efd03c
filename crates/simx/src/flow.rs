//! Max-min fair bandwidth sharing between concurrent transfers.
//!
//! Every active transfer (a *flow*) crosses a set of links. When the set of
//! active flows changes, the per-flow rates are recomputed with the
//! classical **progressive filling** algorithm: the most contended link is
//! saturated first, the flows crossing it are frozen at the fair share of
//! that link, its capacity is removed, and the process repeats. This is the
//! same fluid model SimGrid uses for TCP-level simulation and is what makes
//! the shared-switch sites exhibit more contention than the
//! per-cluster-switch sites.
//!
//! [`max_min_fair_rates`] is the pure, allocating specification of that
//! computation, kept as the reference the network is tested against (and
//! reused verbatim by the frozen engine in [`crate::reference`]).
//! [`FlowNetwork`] is the engine's network. It fills **route classes**, not
//! flows: flows crossing the same links get the same rate, and a site has a
//! handful of routes (one intra link per cluster, one uplink–fabric–uplink
//! path per cluster pair) while a contended schedule keeps hundreds of flows
//! in flight.
//!
//! Class filling yields the specification's rates bit for bit. A round
//! freezes the flows crossing the bottleneck at one `share` and applies
//! `c = (c - share).max(0.0)` to every link each of them crosses. A link's
//! capacity is touched only by its own subtractions, so applying the step
//! once per frozen flow crossing the link gives the same bits in any order.
//! User counts are sums of class counts, so every share and bottleneck
//! choice (smallest share, ties to the lowest link index) matches too. A
//! link left with no unfrozen user after a round skips that round's
//! subtractions: its capacity is never read again in that recomputation.

use crate::resources::LinkId;

/// Maximum number of links a route may cross (uplink, fabric, downlink).
pub const MAX_ROUTE_LINKS: usize = 3;

/// A flow crossing a set of links with some bytes left to transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Links crossed by the flow.
    pub links: Vec<LinkId>,
    /// Bytes remaining to transfer.
    pub remaining: f64,
}

/// Computes the max-min fair rate (bytes/s) of each flow given the link
/// capacities (bytes/s).
///
/// Flows crossing no link (local transfers) get an infinite rate. The
/// returned vector is indexed like `flows`.
///
/// This is the executable specification: [`FlowNetwork`] implements the
/// same computation over route classes without allocating, and its tests
/// check the two agree bit for bit.
pub fn max_min_fair_rates(capacities: &[f64], flows: &[Flow]) -> Vec<f64> {
    let mut rates = vec![f64::INFINITY; flows.len()];
    if flows.is_empty() {
        return rates;
    }

    let mut remaining_capacity: Vec<f64> = capacities.to_vec();
    let mut frozen = vec![false; flows.len()];
    // A flow with no links is never constrained.
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() {
            frozen[i] = true;
        }
    }

    loop {
        // Count unfrozen flows per link.
        let mut users = vec![0usize; capacities.len()];
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            for &l in &f.links {
                users[l] += 1;
            }
        }
        // Find the bottleneck link: smallest fair share among used links.
        let mut bottleneck: Option<(LinkId, f64)> = None;
        for (l, &u) in users.iter().enumerate() {
            if u == 0 {
                continue;
            }
            let share = remaining_capacity[l] / u as f64;
            match bottleneck {
                None => bottleneck = Some((l, share)),
                Some((_, best)) if share < best => bottleneck = Some((l, share)),
                _ => {}
            }
        }
        let Some((bl, share)) = bottleneck else {
            break; // every flow is frozen
        };
        // Freeze every unfrozen flow crossing the bottleneck at `share` and
        // subtract its consumption from the other links it crosses.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] || !f.links.contains(&bl) {
                continue;
            }
            rates[i] = share;
            frozen[i] = true;
            for &l in &f.links {
                remaining_capacity[l] = (remaining_capacity[l] - share).max(0.0);
            }
        }
    }
    rates
}

/// Flows crossing the same links in the same order.
#[derive(Debug, Clone)]
struct RouteClass {
    /// Links crossed.
    links: Vec<LinkId>,
    /// In-flight flows on the route.
    count: usize,
    /// Rate (bytes/s) of each of them, as of the last recompute.
    rate: f64,
}

/// An in-flight transfer: the caller's key, the index of its route class
/// and the bytes it has left.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    key: usize,
    class: usize,
    remaining: f64,
}

/// The set of in-flight transfers, advancing them in simulated time under
/// max-min fair sharing.
///
/// Each distinct route is a class holding its links, its count of in-flight
/// flows and their common rate; a flow stores only its class index. The
/// class table and the scratch buffers survive [`FlowNetwork::reset`] (an
/// engine's network always serves the same capacities), so only the first
/// flow on a new route allocates. The next-completion horizon is cached
/// after every change, making [`FlowNetwork::next_completion`] constant-time
/// (the engine polls it several times per event step).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    capacities: Vec<f64>,
    /// Every route seen so far.
    classes: Vec<RouteClass>,
    /// In-flight flows, in start order.
    flows: Vec<InFlight>,
    last_update: f64,
    /// Cached `(time, key)` of the earliest-finishing flow; valid until the
    /// flow set changes (rates and residuals only move on start/complete).
    next_done: Option<(f64, usize)>,
    // Scratch for the progressive-filling computation, reused across calls:
    // remaining capacity, unfrozen flows and flows frozen in the current
    // round per link, frozen flag per class.
    scratch_capacity: Vec<f64>,
    scratch_users: Vec<usize>,
    scratch_frozen_users: Vec<usize>,
    scratch_frozen: Vec<bool>,
}

impl FlowNetwork {
    /// Creates a flow network over links with the given capacities.
    pub fn new(capacities: Vec<f64>) -> Self {
        Self {
            capacities,
            ..Self::default()
        }
    }

    /// Number of in-flight flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow is in flight.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Drops all flows and rewinds the clock to 0, keeping the capacities,
    /// the route classes and every internal buffer's storage (so a reused
    /// network allocates nothing on its next run).
    pub fn reset(&mut self) {
        self.flows.clear();
        self.classes.iter_mut().for_each(|c| c.count = 0);
        self.last_update = 0.0;
        self.next_done = None;
    }

    /// Advances all flows to time `now`.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last_update;
        if dt > 0.0 {
            for f in &mut self.flows {
                let rate = self.classes[f.class].rate;
                if rate.is_finite() {
                    f.remaining = (f.remaining - rate * dt).max(0.0);
                } else {
                    f.remaining = 0.0;
                }
            }
        }
        self.last_update = now;
    }

    /// Progressive filling over the route classes — the same computation as
    /// [`max_min_fair_rates`], without allocating.
    fn recompute(&mut self) {
        self.scratch_capacity.clone_from(&self.capacities);
        self.scratch_users.clear();
        self.scratch_users.resize(self.capacities.len(), 0);
        self.scratch_frozen_users.clear();
        self.scratch_frozen_users.resize(self.capacities.len(), 0);
        self.scratch_frozen.clear();
        for class in &self.classes {
            // A class with no links is never constrained: its rate stays
            // infinite.
            self.scratch_frozen
                .push(class.count == 0 || class.links.is_empty());
            for &l in &class.links {
                self.scratch_users[l] += class.count;
            }
        }

        loop {
            let mut bottleneck: Option<(LinkId, f64)> = None;
            for (l, &u) in self.scratch_users.iter().enumerate() {
                if u == 0 {
                    continue;
                }
                let share = self.scratch_capacity[l] / u as f64;
                match bottleneck {
                    None => bottleneck = Some((l, share)),
                    Some((_, best)) if share < best => bottleneck = Some((l, share)),
                    _ => {}
                }
            }
            let Some((bl, share)) = bottleneck else {
                break; // every class is frozen
            };
            for (class, frozen) in self.classes.iter_mut().zip(&mut self.scratch_frozen) {
                if *frozen || !class.links.contains(&bl) {
                    continue;
                }
                class.rate = share;
                *frozen = true;
                for &l in &class.links {
                    self.scratch_users[l] -= class.count;
                    self.scratch_frozen_users[l] += class.count;
                }
            }
            // Subtract the frozen flows' consumption, one flow at a time,
            // from the links that still have unfrozen users.
            for (l, frozen_users) in self.scratch_frozen_users.iter_mut().enumerate() {
                let k = std::mem::take(frozen_users);
                if self.scratch_users[l] > 0 {
                    let capacity = &mut self.scratch_capacity[l];
                    for _ in 0..k {
                        *capacity = (*capacity - share).max(0.0);
                    }
                }
            }
        }
    }

    /// Recomputes the cached next-completion horizon. Rates and residuals
    /// only change on [`FlowNetwork::start`]/[`FlowNetwork::complete`], so
    /// the cache stays valid between them.
    fn refresh_next_done(&mut self) {
        let mut best: Option<(f64, usize)> = None;
        for f in &self.flows {
            let rate = self.classes[f.class].rate;
            let finish = if f.remaining <= 0.0 || rate.is_infinite() {
                self.last_update
            } else if rate <= 0.0 {
                f64::INFINITY
            } else {
                self.last_update + f.remaining / rate
            };
            match best {
                None => best = Some((finish, f.key)),
                Some((t, _)) if finish < t => best = Some((finish, f.key)),
                _ => {}
            }
        }
        self.next_done = best;
    }

    /// Starts a new flow identified by `key` at time `now`, transferring
    /// `bytes` bytes across `links`.
    ///
    /// # Panics
    ///
    /// Panics if the route crosses more than [`MAX_ROUTE_LINKS`] links (site
    /// routes never do).
    pub fn start(&mut self, now: f64, key: usize, links: &[LinkId], bytes: f64) {
        assert!(
            links.len() <= MAX_ROUTE_LINKS,
            "route crosses {} links; a flow may cross at most {MAX_ROUTE_LINKS}",
            links.len()
        );
        self.advance(now);
        let class = match self.classes.iter().position(|c| c.links == links) {
            Some(class) => class,
            None => {
                self.classes.push(RouteClass {
                    links: links.to_vec(),
                    count: 0,
                    rate: f64::INFINITY,
                });
                self.classes.len() - 1
            }
        };
        self.classes[class].count += 1;
        self.flows.push(InFlight {
            key,
            class,
            remaining: bytes.max(0.0),
        });
        self.recompute();
        self.refresh_next_done();
    }

    /// Time at which the next flow completes, together with its key, if any
    /// flow is in flight.
    pub fn next_completion(&self) -> Option<(f64, usize)> {
        self.next_done
    }

    /// Completes the flow identified by `key` at time `now` (removes it and
    /// recomputes the rates of the survivors).
    pub fn complete(&mut self, now: f64, key: usize) {
        self.advance(now);
        let classes = &mut self.classes;
        self.flows.retain(|f| {
            if f.key == key {
                classes[f.class].count -= 1;
            }
            f.key != key
        });
        self.recompute();
        self.refresh_next_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_fair_rates(
            &[100.0],
            &[Flow {
                links: vec![0],
                remaining: 1.0,
            }],
        );
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let f = Flow {
            links: vec![0],
            remaining: 1.0,
        };
        let rates = max_min_fair_rates(&[100.0], &[f.clone(), f]);
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn local_flow_is_unconstrained() {
        let rates = max_min_fair_rates(
            &[100.0],
            &[Flow {
                links: vec![],
                remaining: 1.0,
            }],
        );
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn max_min_respects_bottleneck_then_redistributes() {
        // Flow A crosses links 0 and 1; flow B crosses only link 0; link 0 is
        // large (200), link 1 is small (50).
        // A is limited to 50 by link 1; B then gets the rest of link 0 (150).
        let flows = [
            Flow {
                links: vec![0, 1],
                remaining: 1.0,
            },
            Flow {
                links: vec![0],
                remaining: 1.0,
            },
        ];
        let rates = max_min_fair_rates(&[200.0, 50.0], &flows);
        assert!((rates[0] - 50.0).abs() < 1e-9);
        assert!((rates[1] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn three_flows_one_link() {
        let f = Flow {
            links: vec![0],
            remaining: 1.0,
        };
        let rates = max_min_fair_rates(&[90.0], &[f.clone(), f.clone(), f]);
        for r in rates {
            assert!((r - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn network_rates_match_the_specification_bit_for_bit() {
        // A contended mix over 4 links: some flows share every link, some
        // only the fabric, one is local. The network's in-place progressive
        // filling must produce exactly the rates of the pure specification.
        let capacities = vec![125.0e6, 1.0e9, 125.0e6, 50.0e6];
        let link_sets: Vec<Vec<LinkId>> = vec![
            vec![0, 1, 2],
            vec![1],
            vec![0, 3],
            vec![],
            vec![2, 3],
            vec![1, 3],
        ];
        let mut net = FlowNetwork::new(capacities.clone());
        for (i, links) in link_sets.iter().enumerate() {
            net.start(0.0, i, links, 1.0e8 * (i + 1) as f64);
        }
        let expected: BTreeMap<usize, Vec<LinkId>> = link_sets.into_iter().enumerate().collect();
        assert_matches_specification(&net, &capacities, &expected);
    }

    /// Asserts that the network holds exactly the `expected` flows (key →
    /// route) and that each one's rate equals, bit for bit, the rate
    /// [`max_min_fair_rates`] gives it over the expected routes.
    fn assert_matches_specification(
        net: &FlowNetwork,
        capacities: &[f64],
        expected: &BTreeMap<usize, Vec<LinkId>>,
    ) {
        let mut keys: Vec<usize> = net.flows.iter().map(|f| f.key).collect();
        keys.sort_unstable();
        assert!(keys.iter().eq(expected.keys()), "in flight: {keys:?}");
        // Rates do not depend on the bytes left.
        let spec_flows: Vec<Flow> = expected
            .values()
            .map(|links| Flow {
                links: links.clone(),
                remaining: 1.0,
            })
            .collect();
        let spec = max_min_fair_rates(capacities, &spec_flows);
        assert_eq!(spec.len(), net.len());
        for (&key, &want) in expected.keys().zip(&spec) {
            let f = net.flows.iter().find(|f| f.key == key).unwrap();
            let got = net.classes[f.class].rate;
            assert_eq!(got.to_bits(), want.to_bits(), "flow {key}: {got} vs {want}");
        }
    }

    #[test]
    fn route_classes_match_the_specification_under_random_churn() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        // A Grid'5000-shaped site with 4 clusters: link 2c is cluster c's
        // intra link, 2c + 1 its uplink, 8 the shared fabric. Cluster 3's
        // intra link has zero capacity. Both fabrics are covered: a shared
        // gigabit switch and a 10 Gbit/s backbone.
        let gigabit: f64 = 125.0e6;
        for fabric in [gigabit, 10.0 * gigabit] {
            let mut capacities = vec![gigabit; 8];
            capacities[6] = 0.0;
            capacities.push(fabric);
            // 16 routes: local, each intra link, and the inter-cluster
            // paths in both directions (the last one left out).
            let mut routes: Vec<Vec<LinkId>> = vec![vec![]];
            routes.extend((0..4).map(|c| vec![2 * c]));
            for a in 0..4 {
                for b in (0..4).filter(|&b| b != a) {
                    routes.push(vec![2 * a + 1, 8, 2 * b + 1]);
                }
            }
            routes.truncate(16);

            let mut rng = ChaCha8Rng::seed_from_u64(fabric.to_bits());
            let mut net = FlowNetwork::new(capacities.clone());
            let mut in_flight: BTreeMap<usize, Vec<LinkId>> = BTreeMap::new();
            let mut now = 0.0;
            let mut peak = 0;
            for key in 0..2000 {
                let target = if key < 1000 { 400 } else { 40 };
                if in_flight.len() < target && rng.gen_bool(0.6) {
                    now += [0.0, 0.0, 1.0e-3, 0.05][rng.gen_range(0..4)];
                    let route = &routes[rng.gen_range(0..routes.len())];
                    let bytes = [0.0, 1.0e3, rng.gen_range(1.0e6..5.0e8)][rng.gen_range(0..3)];
                    net.start(now, key, route, bytes);
                    in_flight.insert(key, route.clone());
                } else if !in_flight.is_empty() {
                    // Mostly the engine's pattern (complete the earliest
                    // finisher at its finish time), sometimes an arbitrary
                    // flow now; starved flows never finish on their own.
                    let done = match net.next_completion() {
                        Some((t, k)) if t.is_finite() && rng.gen_bool(0.8) => {
                            now = t;
                            k
                        }
                        _ => *in_flight
                            .keys()
                            .nth(rng.gen_range(0..in_flight.len()))
                            .unwrap(),
                    };
                    net.complete(now, done);
                    in_flight.remove(&done);
                }
                peak = peak.max(net.len());
                assert_matches_specification(&net, &capacities, &in_flight);
            }
            assert!(peak >= 200, "only {peak} flows in flight at once");
        }
    }

    #[test]
    #[should_panic(expected = "a flow may cross at most")]
    fn start_rejects_routes_longer_than_max_route_links() {
        let mut net = FlowNetwork::new(vec![100.0; 4]);
        net.start(0.0, 1, &[0, 1, 2, 3], 100.0);
    }

    #[test]
    fn flow_network_completion_times_with_contention() {
        // Two 100-byte flows on a 100 B/s link starting together: both
        // progress at 50 B/s; the first completes at t=2; after it leaves the
        // second would already be done too (it also finished its 100 bytes
        // by t=2 at 50 B/s).
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(0.0, 1, &[0], 100.0);
        net.start(0.0, 2, &[0], 100.0);
        let (t, key) = net.next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-9);
        net.complete(t, key);
        let (t2, _) = net.next_completion().unwrap();
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_down_first_flow() {
        // Flow 1 starts alone (100 B/s); at t=0.5 flow 2 arrives and both run
        // at 50 B/s. Flow 1 has 50 bytes left => completes at 1.5.
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(0.0, 1, &[0], 100.0);
        net.start(0.5, 2, &[0], 100.0);
        let (t, key) = net.next_completion().unwrap();
        assert_eq!(key, 1);
        assert!((t - 1.5).abs() < 1e-9);
        net.complete(t, 1);
        // Flow 2 then finishes its remaining 50 bytes at full speed: 1.5+0.5.
        let (t2, key2) = net.next_completion().unwrap();
        assert_eq!(key2, 2);
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(1.0, 7, &[0], 0.0);
        let (t, key) = net.next_completion().unwrap();
        assert_eq!(key, 7);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_network_has_no_completion() {
        let net = FlowNetwork::new(vec![100.0]);
        assert!(net.next_completion().is_none());
        assert!(net.is_empty());
    }

    #[test]
    fn reset_clears_flows_but_keeps_capacities() {
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(0.0, 1, &[0], 100.0);
        net.complete(1.0, 1);
        net.reset();
        assert!(net.is_empty());
        assert!(net.next_completion().is_none());
        // A fresh flow behaves as if the network were brand new.
        net.start(0.0, 2, &[0], 100.0);
        let (t, key) = net.next_completion().unwrap();
        assert_eq!(key, 2);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
