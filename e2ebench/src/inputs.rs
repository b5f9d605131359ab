//! Workload definitions and seeded input generation.
//!
//! Everything the program under test receives is built here from the
//! run's `--seed`: the follow graph's edge list, the event trace, the
//! guaranteed-diamond probe groups, and the framing of the trace into
//! tagged ingest frames. Generation happens before any timer starts;
//! the same seed always yields the same inputs.

use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs_graph::FollowGraph;
use magicrecs_replica::ClusterMap;
use magicrecs_types::{route_mix, DetectorConfig, Duration, EdgeEvent, Timestamp, UserId};

/// Traffic shape of a served workload.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Zipf-popular steady follows (`Scenario::steady`) over the graph's
    /// users, each target then spread uniformly over `fan` accounts
    /// sharing its popularity rank (ids `rank + users * j`), so follows
    /// land on `fan * users` distinct accounts.
    Steady { fan: u64 },
    /// Steady follows plus a celebrity burst every `period_s` simulated
    /// seconds (`Scenario::mixed`).
    Mixed { period_s: u64, burst: usize },
}

/// A workload served by the epoll tier (`Server` over `ConcurrentEngine`).
#[derive(Debug, Clone, Copy)]
pub struct ServedSpec {
    /// Vertices of the follow graph.
    pub users: u64,
    /// Mean followings per user.
    pub mean_out_degree: f64,
    /// Largest out-degree the generator draws.
    pub max_out_degree: usize,
    /// Zipf exponent of follow targets in the trace.
    pub trace_alpha: f64,
    /// Trace shape.
    pub traffic: Traffic,
    /// Offered load of the fixed-rate phase, events/s: a fixed number,
    /// well below the saturation throughput of a 2-core box (see
    /// `METRICS.md` for why not half of it).
    pub fixed_rate: f64,
    /// Trace events per second of saturation phase. A phase that
    /// consumes them all before its deadline ends early: keeping
    /// `steady_sparse` saturated for the whole phase would take several
    /// million more events and their memory.
    pub sat_capacity: f64,
    /// Leading trace events also checked against `BatchOracle` (0 = none).
    pub oracle_prefix: usize,
}

/// The volatile served path on a large sparse graph (500k users, mean
/// out-degree about 4.6) with follow targets spread Zipf(0.5) over twenty
/// million accounts: `S` and `D` far exceed the last-level cache, and
/// only a few percent of organic events reach `k` witnesses, so wire
/// handling and `D` upserts dominate and the kernel is mostly bypassed.
pub const STEADY_SPARSE: ServedSpec = ServedSpec {
    users: 500_000,
    // The generator floors every out-degree at 1, so this parameter
    // yields a mean of about 4.6.
    mean_out_degree: 0.8,
    max_out_degree: 64,
    trace_alpha: 0.5,
    traffic: Traffic::Steady { fan: 40 },
    fixed_rate: 100_000.0,
    sat_capacity: 600_000.0,
    oracle_prefix: 0,
};

/// The same served path on a cache-sized dense graph with periodic
/// celebrity joins: the threshold/intersect kernel and hot-target
/// witness fetches dominate.
pub const CELEBRITY_DENSE: ServedSpec = ServedSpec {
    users: 50_000,
    mean_out_degree: 25.0,
    max_out_degree: 300,
    trace_alpha: 1.0,
    traffic: Traffic::Mixed {
        period_s: 5,
        burst: 150,
    },
    fixed_rate: 12_000.0,
    sat_capacity: 100_000.0,
    oracle_prefix: 4_000,
};

/// Users in the replicated workload's shared graph fixture.
pub const REPLICATED_USERS: u64 = 20_000;

/// Events per replicated ingest batch (61 organic + one probe group).
pub const REPLICATED_BATCH: usize = 64;

/// Replicated batches sized into the trace per second of run; far above
/// what an fsync-per-batch closed loop reaches.
const REPLICATED_BATCHES_PER_S: f64 = 1_000.0;

/// Events per warm-up / saturation ingest frame.
pub const BULK_FRAME: usize = 256;

/// Trace events sent during set-up to warm the served path.
pub const WARMUP_EVENTS: usize = 4_096;

/// Gap between fixed-rate send slots; each slot sends one frame per
/// connection holding the events that fell due in it.
pub const SLOT: std::time::Duration = std::time::Duration::from_millis(1);

/// Probe groups per second of fixed-rate phase: enough deliveries for a
/// p99 with at least ten samples beyond it.
const PROBES_PER_S: f64 = 500.0;

/// Share of `--seconds` spent in the fixed-rate phase (the rest is the
/// saturation phase).
pub const FIXED_SHARE: f64 = 0.55;

/// Simulated time spans of the two trace segments. Together they stay
/// inside the detection window τ (10 minutes), so no witness ever
/// expires and the candidate stream cannot depend on how the server's
/// workers interleave — the correctness replay is then exact.
const FIXED_SPAN_S: u64 = 200;
const SAT_SPAN_S: u64 = 330;

/// Simulated start of every trace (noon, clear of quiet hours).
const TRACE_START_S: u64 = 12 * 3600;

/// Probe targets live far above every generated id (celebrities take
/// `users + i`).
const PROBE_ID_BASE: u64 = 1 << 40;

/// The detector every workload runs.
pub fn detector() -> DetectorConfig {
    DetectorConfig::production()
}

/// splitmix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One tagged ingest frame bound for connection `conn`.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Client-assigned tag, echoed by every `Deliver` it produces.
    pub tag: u64,
    /// Connection (== server worker) the frame is routed to.
    pub conn: usize,
    /// Events, all routed to `conn`.
    pub events: Vec<EdgeEvent>,
}

/// Inputs of one served-workload run.
#[derive(Clone)]
pub struct ServedInputs {
    /// The follow graph `S` as a sorted edge list `(follower, followee)`.
    pub edges: Vec<(UserId, UserId)>,
    /// Warm-up frames, in send order.
    pub warmup: Vec<Frame>,
    /// Fixed-rate slots: slot `i` is due `(i + 1) * SLOT` after the phase
    /// starts and holds at most one frame per connection.
    pub slots: Vec<Vec<Frame>>,
    /// Saturation frames per connection, in send order.
    pub saturation: Vec<Vec<Frame>>,
    /// Leading trace events for the `BatchOracle` cross-check.
    pub oracle_prefix: Vec<EdgeEvent>,
    /// Probe groups interleaved into the trace.
    pub probes: usize,
}

impl ServedInputs {
    /// Events in the fixed-rate slots.
    pub fn fixed_events(&self) -> usize {
        self.slots.iter().flatten().map(|f| f.events.len()).sum()
    }
}

/// Witness sets for guaranteed-diamond probe groups: `k` accounts that
/// one common `A` follows, none of them popular (a probe through a
/// celebrity would fan out to all its co-followers). `k` follows of a
/// fresh target then always fire a candidate for that `A`. The scan
/// starts at a seed-chosen user so seeds draw different sets.
pub fn probe_witness_sets(
    graph: &FollowGraph,
    users: u64,
    want: usize,
    seed: u64,
) -> Vec<Vec<UserId>> {
    let k = detector().k;
    let first = mix(seed, 0x9B0B) % users;
    let mut sets = Vec::with_capacity(want);
    for i in 0..users {
        if sets.len() == want {
            break;
        }
        let a = UserId((first + i) % users);
        let mut modest: Vec<UserId> = graph
            .followings(a)
            .into_iter()
            .filter(|b| graph.follower_count(*b) <= 64)
            .collect();
        if modest.len() >= k {
            modest.sort_unstable();
            modest.truncate(k);
            sets.push(modest);
        }
    }
    assert!(!sets.is_empty(), "graph has no probe witness sets");
    sets
}

/// Interleaves one probe group after every `stride` events. Probe
/// targets are fresh ids (`next_target` onwards); each group reuses its
/// neighbour's timestamp, keeping the trace time-ordered.
fn interleave_probes(
    events: &[EdgeEvent],
    sets: &[Vec<UserId>],
    stride: usize,
    next_target: &mut u64,
) -> (Vec<EdgeEvent>, usize) {
    let mut merged = Vec::with_capacity(events.len() + events.len() / stride.max(1) * 4);
    let mut groups = 0usize;
    for (i, e) in events.iter().enumerate() {
        merged.push(*e);
        if (i + 1) % stride == 0 {
            let target = UserId(*next_target);
            *next_target += 1;
            for b in &sets[groups % sets.len()] {
                merged.push(EdgeEvent::follow(*b, target, e.created_at));
            }
            groups += 1;
        }
    }
    (merged, groups)
}

/// Generates one trace segment of about `count` events over `span_s`
/// simulated seconds starting `offset_s` after the trace start.
fn segment(
    spec: &ServedSpec,
    graph: &FollowGraph,
    count: usize,
    offset_s: u64,
    span_s: u64,
    seed: u64,
) -> Vec<EdgeEvent> {
    // Poisson arrivals: over-provision slightly, then cut to size.
    let cfg = ScenarioConfig {
        rate_per_sec: count as f64 * 1.05 / span_s as f64,
        duration: Duration::from_secs(span_s),
        start: Timestamp::from_secs(TRACE_START_S + offset_s),
        popularity_alpha: spec.trace_alpha,
        seed,
    };
    let trace = match spec.traffic {
        Traffic::Steady { fan } => {
            let mut events = Scenario::steady(spec.users, cfg).into_events();
            for (i, e) in events.iter_mut().enumerate() {
                e.dst = UserId(e.dst.0 + spec.users * (mix(seed, i as u64) % fan));
            }
            magicrecs_gen::Trace::new(events)
        }
        Traffic::Mixed { period_s, burst } => {
            Scenario::mixed(graph, spec.users, Duration::from_secs(period_s), burst, cfg)
        }
    };
    let mut events = trace.into_events();
    events.truncate(count);
    events
}

/// Routes an event to a connection the way the server's parity contract
/// requires: by target, so per-target order survives the network.
pub fn route(e: &EdgeEvent, conns: usize) -> usize {
    (route_mix(&e.dst) % conns as u64) as usize
}

/// Builds every input of a served run.
pub fn served_inputs(spec: &ServedSpec, seed: u64, seconds: f64, conns: usize) -> ServedInputs {
    let graph = GraphGen::new(GraphGenConfig {
        users: spec.users,
        mean_out_degree: spec.mean_out_degree,
        max_out_degree: spec.max_out_degree,
        popularity_alpha: 1.0,
        activity_alpha: 0.6,
        seed: mix(seed, 1),
    })
    .generate();
    let mut edges: Vec<(UserId, UserId)> = graph
        .iter_forward()
        .flat_map(|(a, bs)| bs.into_iter().map(move |b| (a, b)))
        .collect();
    edges.sort_unstable();

    let fixed_secs = seconds * FIXED_SHARE;
    let sat_secs = seconds - fixed_secs;
    let fixed_count = (spec.fixed_rate * fixed_secs) as usize;
    let probe_stride = (spec.fixed_rate / PROBES_PER_S) as usize;
    let sets = probe_witness_sets(&graph, spec.users, 512, seed);
    let mut next_target = PROBE_ID_BASE;

    let head = segment(
        spec,
        &graph,
        WARMUP_EVENTS + fixed_count,
        0,
        FIXED_SPAN_S,
        mix(seed, 2),
    );
    let (head, head_probes) = interleave_probes(&head, &sets, probe_stride, &mut next_target);
    let tail = segment(
        spec,
        &graph,
        (spec.sat_capacity * sat_secs) as usize,
        FIXED_SPAN_S,
        SAT_SPAN_S,
        mix(seed, 3),
    );
    let (tail, tail_probes) = interleave_probes(&tail, &sets, probe_stride, &mut next_target);

    let oracle_prefix = head[..spec.oracle_prefix.min(head.len())].to_vec();
    let warm_end = WARMUP_EVENTS.min(head.len());
    let mut tag = 0u64;
    let warmup = bulk_frames(&head[..warm_end], conns, &mut tag).concat();

    // Fixed-rate slots: event i falls due i / rate after the phase
    // starts; a slot's frame is sent when its last event is due.
    let per_slot = spec.fixed_rate * SLOT.as_secs_f64();
    let fixed = &head[warm_end..];
    let n_slots = (fixed.len() as f64 / per_slot).ceil() as usize;
    let mut slots: Vec<Vec<Frame>> = Vec::with_capacity(n_slots);
    let mut i = 0usize;
    for s in 0..n_slots {
        let end = (((s + 1) as f64 * per_slot) as usize).min(fixed.len());
        let mut by_conn: Vec<Vec<EdgeEvent>> = vec![Vec::new(); conns];
        for e in &fixed[i..end] {
            by_conn[route(e, conns)].push(*e);
        }
        i = end;
        let mut frames = Vec::new();
        for (conn, events) in by_conn.into_iter().enumerate() {
            if !events.is_empty() {
                frames.push(Frame { tag, conn, events });
                tag += 1;
            }
        }
        slots.push(frames);
    }
    let saturation = bulk_frames(&tail, conns, &mut tag);

    ServedInputs {
        edges,
        warmup,
        slots,
        saturation,
        oracle_prefix,
        probes: head_probes + tail_probes,
    }
}

/// Routes `events` per connection and cuts each connection's stream into
/// [`BULK_FRAME`]-event frames, tagging from `tag` onwards.
fn bulk_frames(events: &[EdgeEvent], conns: usize, tag: &mut u64) -> Vec<Vec<Frame>> {
    let mut by_conn: Vec<Vec<EdgeEvent>> = vec![Vec::new(); conns];
    for e in events {
        by_conn[route(e, conns)].push(*e);
    }
    by_conn
        .into_iter()
        .enumerate()
        .map(|(conn, evs)| {
            evs.chunks(BULK_FRAME)
                .map(|chunk| {
                    let f = Frame {
                        tag: *tag,
                        conn,
                        events: chunk.to_vec(),
                    };
                    *tag += 1;
                    f
                })
                .collect()
        })
        .collect()
}

/// Inputs of one replicated-workload run.
pub struct ReplicatedInputs {
    /// Seed of the nodes' shared graph fixture (`ClusterMap::seed`).
    pub graph_seed: u64,
    /// Batches in send order, each bound for one partition.
    pub batches: Vec<(u32, Vec<EdgeEvent>)>,
}

/// Leading batches sent during set-up.
pub const REPLICATED_WARMUP_BATCHES: usize = 8;

/// The two-partition routing every replicated run uses. Addresses do
/// not affect routing, so placeholders suffice.
pub fn replicated_routing(graph_seed: u64) -> ClusterMap {
    let text = format!(
        "users {REPLICATED_USERS}\nseed {graph_seed}\n\
         node 0 127.0.0.1:1\nnode 1 127.0.0.1:2\n\
         partition 0 leader 0 follower 1\npartition 1 leader 1 follower 0\n"
    );
    ClusterMap::parse(&text).expect("static cluster map parses")
}

/// Builds the replicated run's batches: Zipf-steady follows over the
/// fixture's users, split by partition, each batch closed by one probe
/// group routed to the same partition so every batch delivers.
pub fn replicated_inputs(seed: u64, seconds: f64) -> ReplicatedInputs {
    let graph_seed = mix(seed, 4) % (1 << 48);
    let map = replicated_routing(graph_seed);
    let graph = magicrecs_replica::fixture_graph(&map);
    let table = map.route_table();
    let batches = (seconds * REPLICATED_BATCHES_PER_S) as usize + REPLICATED_WARMUP_BATCHES;
    let organic = REPLICATED_BATCH - detector().k;
    let span = FIXED_SPAN_S + SAT_SPAN_S;
    let trace = Scenario::steady(
        REPLICATED_USERS,
        ScenarioConfig {
            rate_per_sec: (batches * organic) as f64 * 1.05 / span as f64,
            duration: Duration::from_secs(span),
            start: Timestamp::from_secs(TRACE_START_S),
            popularity_alpha: 1.0,
            seed: mix(seed, 5),
        },
    );
    let mut per_part: Vec<Vec<EdgeEvent>> = vec![Vec::new(); 2];
    for e in trace.events() {
        per_part[table.partition_of(&e.dst) as usize].push(*e);
    }
    let sets = probe_witness_sets(&graph, REPLICATED_USERS, 512, seed);
    let mut next_target = PROBE_ID_BASE;
    let mut cursors = [0usize; 2];
    let mut out = Vec::with_capacity(batches);
    for i in 0..batches {
        let p = i % 2;
        let from = cursors[p];
        let to = (from + organic).min(per_part[p].len());
        if to == from {
            break;
        }
        cursors[p] = to;
        let mut batch = per_part[p][from..to].to_vec();
        let at = batch.last().expect("non-empty batch").created_at;
        let target = loop {
            let t = UserId(next_target);
            next_target += 1;
            if table.partition_of(&t) as usize == p {
                break t;
            }
        };
        for b in &sets[i % sets.len()] {
            batch.push(EdgeEvent::follow(*b, target, at));
        }
        out.push((p as u32, batch));
    }
    ReplicatedInputs {
        graph_seed,
        batches: out,
    }
}
