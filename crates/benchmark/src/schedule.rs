//! The four workloads and their seeded request schedules.
//!
//! Every size here is frozen: later changes are compared on exactly this
//! work. `--seconds` scales the sizes linearly from [`NOMINAL_SECONDS`];
//! `--seed` picks inputs, budgets, keys, arrival gaps and upgrade flags.

use crate::models::{Model, INPUT_POOL, SUBNETS};
use crate::rng::{SplitMix, Zipf};

/// `--seconds` at which the sizes below apply (`run_seconds` of
/// `BENCHMARK.json`): the open loop sends for this long, the closed loops
/// are sized so that warm-up plus measured phase fit in it at the seed
/// commit.
pub const NOMINAL_SECONDS: u64 = 30;
/// Requests (or sessions) a closed loop keeps outstanding.
pub const CONCURRENCY: usize = 16;
/// An operation answered later than this after its origin misses.
pub const LATENCY_LIMIT_US: f64 = 5_000.0;
/// Arrival rates of the three open-loop phases, requests per second.
pub const RATES_RPS: [f64; 3] = [500.0, 1_000.0, 1_500.0];
/// Full-budget requests that arrive together ...
pub const BURST_SIZE: usize = 96;
/// ... this often, on top of the Poisson arrivals.
pub const BURST_PERIOD_NS: u64 = 1_000_000_000;
/// Share of open-loop requests whose budget affords subnet 0, 1, 2, 3.
pub const CLASS_SHARES: [f64; SUBNETS] = [0.4, 0.3, 0.2, 0.1];
/// Share of below-top open-loop requests followed by a one-step upgrade.
pub const UPGRADE_SHARE: f64 = 0.25;
/// A request budget is this multiple of the modeled cost it should afford.
pub const BEGIN_BUDGET_MARGIN: f64 = 1.05;
/// An upgrade budget is this multiple of one step's modeled cost: enough
/// for that step, never for two.
pub const STEP_BUDGET_MARGIN: f64 = 1.02;
/// Users the routed workload draws its keys from, zipf(1.0)-distributed.
pub const ROUTER_USERS: usize = 256;
/// Sessions of the fixed script each set-up cycle replays after launch.
pub const SETUP_SCRIPT_SESSIONS: usize = 256;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of `Request::full` on the MLP.
    DirectMlp,
    /// Closed loop of begin-at-0 plus three one-step upgrades on the MLP.
    SteppingMlp,
    /// The `SteppingMlp` script through a two-replica router.
    RoutedSteppingMlp,
    /// Open loop of budgeted requests with bursts on the conv net.
    AnytimeConvOpen,
}

impl Workload {
    /// All four, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::DirectMlp,
        Workload::SteppingMlp,
        Workload::RoutedSteppingMlp,
        Workload::AnytimeConvOpen,
    ];

    /// Name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DirectMlp => "direct_mlp",
            Workload::SteppingMlp => "stepping_mlp",
            Workload::RoutedSteppingMlp => "routed_stepping_mlp",
            Workload::AnytimeConvOpen => "anytime_conv_open",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Model the workload serves.
    pub fn model(self) -> Model {
        match self {
            Workload::AnytimeConvOpen => Model::Conv,
            _ => Model::Mlp,
        }
    }

    /// Whether arrivals follow a schedule (open loop) or replies (closed).
    pub fn is_open(self) -> bool {
        self == Workload::AnytimeConvOpen
    }

    /// Whether requests go through `Router` (two replicas, one worker
    /// each) rather than one `Server` (two workers).
    pub fn is_routed(self) -> bool {
        self == Workload::RoutedSteppingMlp
    }

    /// Sessions in the measured phase of a closed loop at
    /// [`NOMINAL_SECONDS`], sized to 16–21 s at the seed commit (the host's
    /// speed drifts by that much).
    fn measured_sessions(self) -> usize {
        match self {
            Workload::DirectMlp => 180_000,
            Workload::SteppingMlp => 90_000,
            Workload::RoutedSteppingMlp => 90_000,
            Workload::AnytimeConvOpen => 0,
        }
    }

    fn first(self, class: usize) -> First {
        match self {
            Workload::DirectMlp => First::Full,
            Workload::SteppingMlp | Workload::RoutedSteppingMlp => First::Subnet0,
            Workload::AnytimeConvOpen => First::Budget(class as u8),
        }
    }
}

/// What a session's first request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum First {
    /// `Request::full`.
    Full,
    /// `Request::at_subnet(0)`.
    Subnet0,
    /// `Request::with_budget` affording exactly this subnet.
    Budget(u8),
}

/// One session: a first request, then `steps` one-step upgrades, then a
/// release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    /// Index into the run's input pool.
    pub input: u32,
    /// Routing key (used by the routed workload only).
    pub key: u64,
    /// The first request.
    pub first: First,
    /// One-step upgrades that follow, each sent when the previous reply
    /// arrives.
    pub steps: u8,
    /// Open loop: when the first request is due, from the phase's start.
    pub due_ns: u64,
}

impl SessionPlan {
    /// Operations (requests that expect a reply) in the session.
    pub fn ops(&self) -> u64 {
        1 + u64::from(self.steps)
    }
}

/// A group of sessions driven together: the closed loop's single phase, or
/// one arrival rate of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Open loop: arrival rate of the Poisson stream; 0 in a closed loop.
    pub rate_rps: f64,
    /// Open loop: length of the send window; 0 in a closed loop.
    pub window_ns: u64,
    /// The sessions, in start order (by `due_ns` in an open loop).
    pub sessions: Vec<SessionPlan>,
}

impl Phase {
    /// Operations in the phase.
    pub fn ops(&self) -> u64 {
        self.sessions.iter().map(SessionPlan::ops).sum()
    }
}

/// Everything one run sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Replayed closed-loop after every launch of a set-up cycle.
    pub setup_script: Phase,
    /// Sent before measuring starts and not reported.
    pub warmup: Phase,
    /// The measured phases: one for a closed loop, three for the open one.
    pub measured: Vec<Phase>,
}

impl Schedule {
    /// The schedule of `workload` for `seed`, sized for `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Schedule {
        let mut gen = Generator {
            workload,
            rng: SplitMix::new(seed ^ 0x5eed_0000_0000_0000),
            users: Zipf::new(ROUTER_USERS, 1.0),
        };
        let setup_script = gen.closed(SETUP_SCRIPT_SESSIONS);
        if workload.is_open() {
            let window_ns = seconds * 1_000_000_000 / 3;
            Schedule {
                setup_script,
                warmup: gen.open(RATES_RPS[1], window_ns / 10),
                measured: RATES_RPS.iter().map(|&r| gen.open(r, window_ns)).collect(),
            }
        } else {
            let scale = |n: usize| (n as u64 * seconds / NOMINAL_SECONDS).max(64) as usize;
            let measured = scale(workload.measured_sessions());
            Schedule {
                setup_script,
                warmup: gen.closed(measured * 3 / 20),
                measured: vec![gen.closed(measured)],
            }
        }
    }

    /// Operations in the measured phases.
    pub fn measured_ops(&self) -> u64 {
        self.measured.iter().map(Phase::ops).sum()
    }

    /// FNV-1a over every field of every session: two schedules agree
    /// exactly when their hashes do.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let phases = [&self.setup_script, &self.warmup];
        for phase in phases.into_iter().chain(&self.measured) {
            mix(phase.sessions.len() as u64);
            for s in &phase.sessions {
                mix(u64::from(s.input));
                mix(s.key);
                mix(match s.first {
                    First::Full => 0,
                    First::Subnet0 => 1,
                    First::Budget(class) => 2 + u64::from(class),
                });
                mix(u64::from(s.steps));
                mix(s.due_ns);
            }
        }
        h
    }
}

struct Generator {
    workload: Workload,
    rng: SplitMix,
    users: Zipf,
}

impl Generator {
    fn session(&mut self, class: usize, due_ns: u64, upgrade: bool) -> SessionPlan {
        let first = self.workload.first(class);
        SessionPlan {
            input: self.rng.below(INPUT_POOL as u64) as u32,
            key: self.users.sample(&mut self.rng) as u64,
            first,
            steps: match first {
                First::Full => 0,
                First::Subnet0 => (SUBNETS - 1) as u8,
                First::Budget(_) => u8::from(upgrade),
            },
            due_ns,
        }
    }

    /// `sessions` sessions of a closed loop (or of the set-up script).
    fn closed(&mut self, sessions: usize) -> Phase {
        let mix = self.mix(sessions);
        Phase {
            rate_rps: 0.0,
            window_ns: 0,
            sessions: mix
                .into_iter()
                .map(|(class, upgrade)| self.session(class, 0, upgrade))
                .collect(),
        }
    }

    /// Budget class and upgrade flag of `n` requests, in random order, with
    /// exact counts: [`CLASS_SHARES`] of `n` per class and
    /// [`UPGRADE_SHARE`] of the below-top ones flagged. The flag follows the
    /// class asked for, not the subnet served, so neither the seed nor the
    /// server's behaviour changes how many operations a run attempts.
    fn mix(&mut self, n: usize) -> Vec<(usize, bool)> {
        let mut mix = Vec::with_capacity(n);
        for (class, share) in CLASS_SHARES.iter().enumerate() {
            let count = if class == SUBNETS - 1 {
                n - mix.len()
            } else {
                (n as f64 * share).round() as usize
            };
            mix.extend(std::iter::repeat_n((class, false), count));
        }
        let below_top = mix.iter().filter(|(class, _)| *class < SUBNETS - 1).count();
        let flagged = (below_top as f64 * UPGRADE_SHARE) as usize;
        // below-top requests come first in `mix`: flag the first `flagged`,
        // then shuffle everything
        for entry in mix.iter_mut().take(flagged) {
            entry.1 = true;
        }
        for i in (1..mix.len()).rev() {
            mix.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        mix
    }

    /// `rate_rps × window` arrivals at times uniform over the window (a
    /// Poisson process given its count), plus a burst of full-budget
    /// requests every [`BURST_PERIOD_NS`], the first half a period in.
    fn open(&mut self, rate_rps: f64, window_ns: u64) -> Phase {
        let arrivals = (rate_rps * window_ns as f64 / 1e9).round() as usize;
        let mut due: Vec<u64> = (0..arrivals).map(|_| self.rng.below(window_ns)).collect();
        due.sort_unstable();
        let mix = self.mix(arrivals);
        let mut sessions: Vec<SessionPlan> = due
            .into_iter()
            .zip(mix)
            .map(|(due_ns, (class, upgrade))| self.session(class, due_ns, upgrade))
            .collect();
        let mut burst_at = BURST_PERIOD_NS / 2;
        while burst_at < window_ns {
            for _ in 0..BURST_SIZE {
                sessions.push(self.session(SUBNETS - 1, burst_at, false));
            }
            burst_at += BURST_PERIOD_NS;
        }
        sessions.sort_by_key(|s| s.due_ns);
        Phase {
            rate_rps,
            window_ns,
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for workload in Workload::ALL {
            let a = Schedule::generate(workload, 11, 2);
            let b = Schedule::generate(workload, 11, 2);
            let c = Schedule::generate(workload, 12, 2);
            assert_eq!(a.hash(), b.hash(), "{}", workload.name());
            assert_eq!(a, b);
            assert_ne!(a.hash(), c.hash(), "{}", workload.name());
        }
    }

    #[test]
    fn sizes_scale_with_seconds_and_ops_are_exact() {
        let half = Schedule::generate(Workload::DirectMlp, 1, NOMINAL_SECONDS / 2);
        let full = Schedule::generate(Workload::DirectMlp, 1, NOMINAL_SECONDS);
        assert_eq!(full.measured_ops(), 180_000);
        assert_eq!(half.measured_ops(), 90_000);
        let stepping = Schedule::generate(Workload::SteppingMlp, 1, NOMINAL_SECONDS);
        assert_eq!(stepping.measured_ops(), 90_000 * 4);
        assert!(stepping.measured[0].sessions.iter().all(|s| s.steps == 3));
    }

    #[test]
    fn open_loop_has_three_rates_bursts_and_flagged_upgrades() {
        let s = Schedule::generate(Workload::AnytimeConvOpen, 4, 9);
        assert_eq!(s.measured.len(), 3);
        for (phase, rate) in s.measured.iter().zip(RATES_RPS) {
            assert_eq!(phase.window_ns, 3_000_000_000);
            let full_budget = phase
                .sessions
                .iter()
                .filter(|p| p.first == First::Budget(3) && p.steps == 0)
                .count();
            assert!(full_budget >= 3 * BURST_SIZE, "three bursts in 3 s");
            assert_eq!(phase.sessions.len(), 3 * rate as usize + 3 * BURST_SIZE);
            let at_half_past = phase
                .sessions
                .iter()
                .filter(|p| p.due_ns == BURST_PERIOD_NS / 2)
                .count();
            assert!(at_half_past >= BURST_SIZE, "a burst arrives together");
            assert!(phase
                .sessions
                .windows(2)
                .all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(phase.sessions.iter().all(|p| p.due_ns < phase.window_ns));
            // only below-top requests are ever flagged for an upgrade
            assert!(phase
                .sessions
                .iter()
                .all(|p| p.steps == 0 || p.first != First::Budget(3)));
            // a quarter of the 90 % below-top arrivals, exactly
            let upgrades = phase.sessions.iter().filter(|p| p.steps == 1).count();
            assert_eq!(upgrades, (3.0 * rate * 0.9 * UPGRADE_SHARE) as usize);
        }
        // the operation count does not depend on the seed
        let other = Schedule::generate(Workload::AnytimeConvOpen, 5, 9);
        assert_eq!(s.measured_ops(), other.measured_ops());
        assert_ne!(s.hash(), other.hash());
    }
}
