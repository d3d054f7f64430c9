//! The moving-world soak: standing PPGNN queries over a live, mutating
//! world, oracle-checked end to end — on a server that may be killed
//! under it.
//!
//! One deterministic [`MovingWorld`] drives everything: groups drift,
//! POIs churn, and the harness plays both sides — an admin connection
//! ships each tick's mutations down the `PoiUpdate` lane while every
//! group holds a standing `Subscribe` query. The harness never loses
//! state, so its plaintext mirror of the live POI set is the oracle for
//! everything the server could get wrong:
//!
//! * **no missed invalidation** — after every tick, a group that was
//!   *not* told to re-plan must still hold the exact top-k (spurious
//!   re-plans are allowed; silence over a changed answer is not);
//! * **exact answers** — every re-plan matches the oracle's top-k;
//! * **version continuity** — every `PoiUpdateAck` carries exactly
//!   `previous + 1`, starting from v1 at boot;
//! * **re-query savings** — standing queries re-plan at least 2× less
//!   often than naive per-tick re-issue.
//!
//! The lane ([`SoakServer`]) decides only how the server starts and
//! whether it dies. [`SoakServer::InProcess`] runs a dynamic server in
//! this process. [`SoakServer::Child`] runs a child `ppgnn-server` (an
//! in-process thread cannot be SIGKILLed) on a durable data dir
//! pre-seeded with the world, SIGKILLs it after the batches of
//! [`KILL_AT_TICKS`] — no drain, no flush beyond what the WAL promised
//! — and restarts it on the same dir. There the chain must survive each
//! kill, the batch acked just before it must come back with its
//! original ack when redelivered, every group's next poll must surface
//! the restart, and the final incarnation must have recorded the
//! durability stages. Each incarnation's stderr (its recovery summary)
//! is appended to `<data_dir>/recovery.log`.
//!
//! The same loop backs `loadgen --moving` and `loadgen --crash`,
//! `tests/server_moving.rs` and `crates/server/tests/crash_soak.rs`.

use std::collections::HashSet;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppgnn_core::{DynamicLsp, PpgnnConfig};
use ppgnn_geo::{PoiId, Point};
use ppgnn_sim::moving::{MovingWorld, MovingWorldConfig};
use ppgnn_telemetry::TelemetrySnapshot;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::client::{GroupClient, SafeRegionToken};
use crate::error::ServerError;
use crate::frame::SubscriptionKind;
use crate::server::{serve_world, ServerConfig, ServerHandle};
use crate::wal::{self, FsyncPolicy};

/// Zero-based ticks after whose batch ack the child lane SIGKILLs its
/// server.
pub const KILL_AT_TICKS: [usize; 2] = [3, 7];

/// Shared secret for the admin lane.
const ADMIN_TOKEN: u64 = 0xD00D_F00D;
/// The admin connection's group id, distinct from every world group.
const ADMIN_GROUP_ID: u64 = 0xAD317;
/// How long one notification poll waits when a push is expected.
const POLL_WAIT: Duration = Duration::from_millis(400);
/// The child's `--checkpoint-every-ops`.
const CHECKPOINT_EVERY_OPS: u64 = 16;
/// How long to wait for a (re)started child to accept connections.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// The protocol every group subscribes under; the child gets it as
/// `--k/--d/--delta/--keysize`.
fn protocol() -> PpgnnConfig {
    PpgnnConfig {
        k: 2,
        d: 3,
        delta: 6,
        keysize: 128,
        sanitize: false,
        ..PpgnnConfig::fast_test()
    }
}

/// Where the soak's server runs — the one thing the two lanes differ in.
#[derive(Debug, Clone)]
pub enum SoakServer {
    /// A dynamic server in this process, never killed.
    InProcess,
    /// A child `ppgnn-server` on a durable data dir, SIGKILLed and
    /// restarted after the batches of [`KILL_AT_TICKS`].
    Child {
        /// The `ppgnn-server` binary. Tests use
        /// `env!("CARGO_BIN_EXE_ppgnn-server")`.
        server_bin: PathBuf,
        /// Durable state shared by every incarnation. It must hold no
        /// checkpoint or WAL yet: the soak bootstraps its own world.
        data_dir: PathBuf,
    },
}

/// One soak run. `Default` is the tuned CI shape (seconds, not
/// minutes) on the in-process lane.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The world: groups, drift, churn, seed.
    pub world: MovingWorldConfig,
    /// Ticks to run.
    pub ticks: usize,
    /// The lane.
    pub server: SoakServer,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            world: MovingWorldConfig {
                seed: 7,
                n_groups: 4,
                users_per_group: 2,
                // Sentinel margins (gap between the k-th protected
                // answer and the runner-up) sit around 1e-4 on a
                // 300-POI unit square, giving drift radii near
                // margin/(4*users) = ~1e-5. A tick must stay well
                // inside so one subscription survives many ticks —
                // on a city-scale unit square this is walking pace.
                drift_step: 4e-6,
                churn_per_tick: 2,
                // Sparser worlds have wider sentinel gaps (typical
                // nearest-neighbor spacing scales as n^-1/2), so
                // subscriptions live longer before drifting out.
                initial_pois: 150,
                space: ppgnn_geo::Rect::UNIT,
            },
            ticks: 12,
            server: SoakServer::InProcess,
        }
    }
}

/// What one soak observed. [`SoakReport::passed`] is the CI gate;
/// [`SoakReport::render`] the human view.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Ticks executed.
    pub ticks: usize,
    /// Groups holding standing queries.
    pub groups: usize,
    /// POI mutations shipped down the admin lane.
    pub poi_ops: u64,
    /// SIGKILLs delivered (== restarts performed). Zero in process.
    pub kills: u64,
    /// Post-restart redeliveries answered with the *original* version
    /// and apply count — the idempotence proof. Must equal `kills`.
    pub replay_acks: u64,
    /// Acks whose version broke the `previous + 1` chain, or
    /// redeliveries that re-applied. The design guarantees **zero**.
    pub version_breaks: u64,
    /// The version the chain ended at (the closing empty batch's).
    pub final_version: u64,
    /// Polls on which a group saw the server epoch change. Every
    /// standing query must notice every kill.
    pub restarts_noticed: u64,
    /// Re-plans on a poll that saw the epoch change.
    pub restart_requeries: u64,
    /// Other re-plans triggered by an invalidation push.
    pub invalidation_requeries: u64,
    /// Re-plans triggered by a user drifting out of its safe region.
    pub drift_requeries: u64,
    /// What per-tick re-issue would have cost: `groups × ticks`.
    pub naive_requeries: u64,
    /// Subscription pushes received (grants excluded).
    pub notifications: u64,
    /// Oracle says the answer changed but no push arrived. The design
    /// guarantees this is **zero**; anything else is a server bug.
    pub missed_invalidations: u64,
    /// Invalidation re-plans that returned the same answer — the price
    /// of conservative regions, tolerated but tracked.
    pub spurious_invalidations: u64,
    /// Grants and re-plans whose answer disagreed with the plaintext
    /// oracle. Zero.
    pub answer_mismatches: u64,
    /// The final server's telemetry, fetched over the wire.
    pub stats: TelemetrySnapshot,
    /// Durability stages the final child never recorded: `wal-append`
    /// always, `recover-replay` once a kill happened. Empty in process,
    /// where nothing is durable.
    pub missing_stages: Vec<String>,
    /// Wall-clock for the whole soak, restarts included.
    pub wall: Duration,
}

impl SoakReport {
    /// Total re-plans the subscription machinery performed.
    pub fn requeries(&self) -> u64 {
        self.restart_requeries + self.invalidation_requeries + self.drift_requeries
    }

    /// How many× fewer re-plans standing queries needed than naive
    /// per-tick re-issue. Restart re-plans are the price of the kills,
    /// not of the safe regions, so they are left out. The bar is ≥ 2.
    pub fn requery_savings(&self) -> f64 {
        let standing = self.invalidation_requeries + self.drift_requeries;
        self.naive_requeries as f64 / standing.max(1) as f64
    }

    /// Pushes per wall-clock second.
    pub fn notifications_per_sec(&self) -> f64 {
        self.notifications as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The acceptance gate: an unbroken version chain, no missed
    /// invalidation, no wrong answer, idempotent redelivery after every
    /// kill, every kill noticed by every group, standing queries at
    /// least 2× cheaper than naive re-issue, and the durability stages
    /// recorded.
    pub fn passed(&self) -> bool {
        self.version_breaks == 0
            && self.missed_invalidations == 0
            && self.answer_mismatches == 0
            && self.replay_acks == self.kills
            && self.restarts_noticed == self.kills * self.groups as u64
            && self.requery_savings() >= 2.0
            && self.missing_stages.is_empty()
    }

    /// Plain-text summary for the CLI and CI logs.
    pub fn render(&self) -> String {
        format!(
            "soak: {} groups x {} ticks, {} poi ops, {} kills\n\
             re-queries     {:>6} ({} restart + {} invalidation + {} drift)\n\
             savings        {:>5.1}x ({} naive / {} invalidation + drift)\n\
             notifications  {:>6} ({:.1}/s)\n\
             invalidations  missed {} | spurious {} | wrong answers {}\n\
             version chain  final v{} | breaks {}\n\
             redelivery     {} replay acks / {} kills (idempotent)\n\
             restarts seen  {} / {} expected (groups x kills)\n\
             stages missing {:?}\n\
             wall           {:.2?}\n\
             verdict        {}",
            self.groups,
            self.ticks,
            self.poi_ops,
            self.kills,
            self.requeries(),
            self.restart_requeries,
            self.invalidation_requeries,
            self.drift_requeries,
            self.requery_savings(),
            self.naive_requeries,
            self.invalidation_requeries + self.drift_requeries,
            self.notifications,
            self.notifications_per_sec(),
            self.missed_invalidations,
            self.spurious_invalidations,
            self.answer_mismatches,
            self.final_version,
            self.version_breaks,
            self.replay_acks,
            self.kills,
            self.restarts_noticed,
            self.kills * self.groups as u64,
            self.missing_stages,
            self.wall,
            if self.passed() { "PASS" } else { "FAIL" },
        )
    }
}

/// Kills the child on drop so a failing soak never leaks a server
/// process into the test runner.
struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    /// SIGKILL, then reap. `Child::kill` on unix is `SIGKILL` — no
    /// handler runs, no flush happens; whatever the WAL promised is
    /// all the durability there is.
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Picks a port by binding to 0 and releasing it. Racy in principle;
/// in practice the window to the child's bind is milliseconds, and a
/// lost race fails loudly at `wait_ready`.
fn free_port() -> io::Result<u16> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(listener.local_addr()?.port())
}

/// Polls until the child accepts a TCP connection. A durable server
/// binds only *after* recovery finishes, so a successful connect means
/// the world is already republished at the recovered version.
fn wait_ready(addr: SocketAddr, timeout: Duration) -> Result<(), ServerError> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Ok(_) => return Ok(()),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ServerError::Recovery(format!(
                        "child server not accepting on {addr} within {timeout:?}: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// How the child lane boots each incarnation of its server.
struct ChildSpec<'a> {
    server_bin: &'a Path,
    data_dir: &'a Path,
    port: u16,
    max_subscriptions: usize,
}

impl ChildSpec<'_> {
    fn addr(&self) -> SocketAddr {
        ([127, 0, 0, 1], self.port).into()
    }

    /// Spawns one incarnation and waits until it accepts connections.
    fn boot(&self) -> Result<ChildGuard, ServerError> {
        // Append, not truncate: the log accumulates every incarnation's
        // recovery summary, which is exactly what the CI artifact wants.
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.data_dir.join("recovery.log"))?;
        let _ = writeln!(log, "--- child incarnation ---");
        let protocol = protocol();
        let child = Command::new(self.server_bin)
            .arg("--addr")
            .arg(self.addr().to_string())
            // The data dir is pre-seeded; the child's own POI generation
            // is dead weight on every boot, so keep it 0.
            .arg("--pois")
            .arg("0")
            .arg("--data-dir")
            .arg(self.data_dir)
            // Fsync before every ack makes "no acked batch is ever
            // lost" exact rather than probabilistic, which is what the
            // version-chain check needs.
            .arg("--fsync")
            .arg(FsyncPolicy::Always.name())
            .arg("--checkpoint-every-ops")
            .arg(CHECKPOINT_EVERY_OPS.to_string())
            .arg("--admin-token")
            .arg(ADMIN_TOKEN.to_string())
            .arg("--max-subscriptions")
            .arg(self.max_subscriptions.to_string())
            .arg("--k")
            .arg(protocol.k.to_string())
            .arg("--d")
            .arg(protocol.d.to_string())
            .arg("--delta")
            .arg(protocol.delta.to_string())
            .arg("--keysize")
            .arg(protocol.keysize.to_string())
            // Piped-and-held stdin: the server treats stdin EOF as "drain
            // and exit", which Stdio::null would trigger immediately.
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()?;
        let guard = ChildGuard { child };
        wait_ready(self.addr(), BOOT_TIMEOUT)?;
        Ok(guard)
    }
}

/// The running server under soak. Dropping it stops the server: the
/// in-process one drains, the child is SIGKILLed.
enum Server<'a> {
    InProcess(ServerHandle),
    Child(ChildSpec<'a>, ChildGuard),
}

impl<'a> Server<'a> {
    fn start(config: &'a SoakConfig, world: &MovingWorld) -> Result<Self, ServerError> {
        let max_subscriptions = config.world.n_groups.max(1) * 2;
        match &config.server {
            SoakServer::InProcess => {
                let lsp = Arc::new(DynamicLsp::new(world.initial_pois(), protocol()));
                let server_config = ServerConfig {
                    admin_token: Some(ADMIN_TOKEN),
                    max_subscriptions,
                    ..ServerConfig::default()
                };
                Ok(Server::InProcess(serve_world(
                    lsp,
                    "127.0.0.1:0",
                    server_config,
                )?))
            }
            SoakServer::Child {
                server_bin,
                data_dir,
            } => {
                // A child would recover an earlier run's world while the
                // oracle starts from this one, and every check after
                // that compares two different worlds.
                if wal::holds_state(data_dir) {
                    return Err(ServerError::StaleDataDir(data_dir.clone()));
                }
                // Pre-seed so every incarnation, the first included,
                // boots by the recovery path from *this* world's POIs.
                wal::bootstrap(data_dir, &world.initial_pois())?;
                let spec = ChildSpec {
                    server_bin,
                    data_dir,
                    port: free_port()?,
                    max_subscriptions,
                };
                let guard = spec.boot()?;
                Ok(Server::Child(spec, guard))
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Server::InProcess(handle) => handle.local_addr(),
            Server::Child(spec, _) => spec.addr(),
        }
    }

    /// SIGKILLs the child and boots the next incarnation on the same
    /// data dir and port.
    fn kill_and_restart(&mut self) -> Result<(), ServerError> {
        if let Server::Child(spec, guard) = self {
            guard.kill_now();
            *guard = spec.boot()?;
        }
        Ok(())
    }
}

/// One group's standing-query state between ticks.
struct GroupState {
    client: GroupClient,
    /// User positions the current subscription was planned at.
    anchor: Vec<Point>,
    /// The answer granted at the anchor, as a POI-id set.
    answer: HashSet<PoiId>,
    token: SafeRegionToken,
}

/// Maps answer locations back to POI ids via the plaintext mirror.
/// PPGNN returns exact POI locations, so the match is (near-)exact;
/// `None` means the server answered with a location the oracle's world
/// does not contain — a hard correctness failure.
fn resolve_ids(world: &MovingWorld, answer: &[Point]) -> Option<HashSet<PoiId>> {
    let mut ids = HashSet::with_capacity(answer.len());
    for loc in answer {
        let poi = world
            .live_pois()
            .iter()
            .find(|p| p.location.dist(loc) < 1e-9)?;
        ids.insert(poi.id);
    }
    Some(ids)
}

/// Extends the expected version chain by one and counts a break when
/// the ack landed anywhere else, re-anchoring so one break counts once.
fn extend_chain(expected: &mut u64, acked: u64, breaks: &mut u64) {
    *expected += 1;
    if acked != *expected {
        *breaks += 1;
        *expected = acked;
    }
}

/// Runs the whole soak: boots the lane's server, subscribes every
/// group, then ticks the world — mutating, killing (child lane),
/// polling, re-planning and oracle-checking — and reports what
/// happened.
///
/// A child lane whose data dir already holds a checkpoint or WAL is
/// refused with [`ServerError::StaleDataDir`] before any child starts.
/// Transport failures that even resume cannot absorb surface as `Err`;
/// correctness deviations land in the report, so callers (tests, CI)
/// choose their own severity.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, ServerError> {
    let mut world = MovingWorld::new(config.world.clone());
    let mut server = Server::start(config, &world)?;
    let addr = server.addr();
    let protocol = protocol();
    let (k, agg) = (protocol.k, protocol.aggregate);
    let n_groups = world.groups.len();
    let started = Instant::now();

    // The admin connection negotiates a session like any client (the
    // lane itself is gated by the token, not the handshake).
    let mut admin_rng = ChaCha8Rng::seed_from_u64(config.world.seed ^ 0xAD);
    let mut admin = GroupClient::connect(
        addr,
        ADMIN_GROUP_ID,
        protocol.clone(),
        config.world.space,
        config.world.users_per_group,
        &mut admin_rng,
    )?;

    let mut report = SoakReport {
        ticks: config.ticks,
        groups: n_groups,
        poi_ops: 0,
        kills: 0,
        replay_acks: 0,
        version_breaks: 0,
        final_version: 0,
        restarts_noticed: 0,
        restart_requeries: 0,
        invalidation_requeries: 0,
        drift_requeries: 0,
        naive_requeries: (n_groups * config.ticks) as u64,
        notifications: 0,
        missed_invalidations: 0,
        spurious_invalidations: 0,
        answer_mismatches: 0,
        stats: TelemetrySnapshot::default(),
        missing_stages: Vec::new(),
        wall: Duration::ZERO,
    };

    // Subscribe every group at its starting position.
    let mut states: Vec<GroupState> = Vec::with_capacity(n_groups);
    for track in &world.groups {
        let mut rng = ChaCha8Rng::seed_from_u64(config.world.seed ^ track.group_id);
        let mut client = GroupClient::connect(
            addr,
            track.group_id,
            protocol.clone(),
            config.world.space,
            track.users.len(),
            &mut rng,
        )?;
        let (answer, token) = client.subscribe(&track.users, &mut rng)?;
        let ids = resolve_ids(&world, &answer).unwrap_or_else(|| {
            report.answer_mismatches += 1;
            HashSet::new()
        });
        states.push(GroupState {
            client,
            anchor: track.users.clone(),
            answer: ids,
            token,
        });
    }
    let mut rngs: Vec<ChaCha8Rng> = (0..n_groups)
        .map(|i| ChaCha8Rng::seed_from_u64(config.world.seed ^ 0x9E37 ^ i as u64))
        .collect();

    // Both servers boot at v1 (the bootstrap checkpoint, or
    // `DynamicLsp`'s first publish); every batch, empty ones included,
    // must extend the chain by exactly one, restarts included.
    let mut version: u64 = 1;

    for tick in 0..config.ticks {
        // 1. The world moves: users drift, POIs churn.
        let ops = world.tick();
        report.poi_ops += ops.len() as u64;
        let ack = admin.poi_update(ADMIN_TOKEN, &ops)?;
        extend_chain(&mut version, ack.version, &mut report.version_breaks);

        // 2. The child lane's kill: the batch above is acked, so the
        // restarted server must still know it.
        let killed = matches!(server, Server::Child(..)) && KILL_AT_TICKS.contains(&tick);
        if killed {
            report.kills += 1;
            server.kill_and_restart()?;
            // The admin reconnects explicitly (its next op is a write,
            // which has no self-heal path) ...
            admin.resume()?;
            // ... and redelivers the batch the dead server already
            // acked. Durable dedup must answer with the original
            // version and apply count — not a second application.
            let redelivered = admin.poi_update_with_id(ADMIN_TOKEN, ack.request_id, &ops)?;
            if redelivered.version == ack.version && redelivered.applied == ack.applied {
                report.replay_acks += 1;
            } else {
                report.version_breaks += 1;
                version = redelivered.version;
            }
        }

        for (i, state) in states.iter_mut().enumerate() {
            let current = world.groups[i].users.clone();
            // 3. Client-side half of the contract: a user leaving its
            // safe region re-plans without waiting for the server.
            let radius = state.token.drift_radius();
            let drifted = state
                .anchor
                .iter()
                .zip(&current)
                .any(|(a, c)| a.dist(c) > radius);
            // 4. Server-side half: did a push arrive? Only burn a real
            // wait when one is expected. After a kill this poll hits a
            // dead socket, self-heals by resuming, observes the new
            // epoch, and hands back the synthetic restart invalidation
            // — the group cannot tell a crash from an ordinary
            // invalidation, which is the point.
            let wait = if killed || ack.invalidated > 0 {
                POLL_WAIT
            } else {
                Duration::from_millis(1)
            };
            let epoch = state.client.server_epoch();
            let pushes = state.client.poll_notifications(wait)?;
            let restarted = state.client.server_epoch() != epoch;
            if restarted {
                report.restarts_noticed += 1;
            }
            report.notifications += pushes.len() as u64;
            let invalidated = pushes
                .iter()
                .any(|p| p.kind == SubscriptionKind::Invalidated);

            if invalidated || drifted {
                let (answer, token) = state.client.subscribe(&current, &mut rngs[i])?;
                let ids = resolve_ids(&world, &answer).unwrap_or_else(|| {
                    report.answer_mismatches += 1;
                    HashSet::new()
                });
                let oracle: HashSet<PoiId> =
                    world.oracle_top_k(&current, k, agg).into_iter().collect();
                if ids != oracle {
                    report.answer_mismatches += 1;
                }
                if restarted {
                    report.restart_requeries += 1;
                } else if invalidated {
                    report.invalidation_requeries += 1;
                    if ids == state.answer {
                        report.spurious_invalidations += 1;
                    }
                } else {
                    report.drift_requeries += 1;
                }
                state.anchor = current;
                state.answer = ids;
                state.token = token;
            } else {
                // 5. The oracle audit: silence is only correct if the
                // subscribed answer still holds in the mutated world.
                let oracle: HashSet<PoiId> = world
                    .oracle_top_k(&state.anchor, k, agg)
                    .into_iter()
                    .collect();
                if oracle != state.answer {
                    report.missed_invalidations += 1;
                    // Re-anchor so one miss is not counted every
                    // remaining tick.
                    state.answer = oracle;
                }
            }
        }
    }

    // One deliberate empty batch closes the run: it extends the chain
    // by exactly one and guarantees a final child exercised
    // `wal-append` even when the last kill landed on the last tick
    // (where the only post-restart traffic is the deduped redelivery).
    let closing = admin.poi_update(ADMIN_TOKEN, &[])?;
    extend_chain(&mut version, closing.version, &mut report.version_breaks);
    report.final_version = version;
    report.stats = admin.server_stats()?;
    // The durability gate, over the wire from the *final* incarnation:
    // `wal-append` proves the durable path ran, `recover-replay` that a
    // boot actually replayed.
    let durability: &[&str] = match (&server, report.kills) {
        (Server::InProcess(_), _) => &[],
        (Server::Child(..), 0) => &["wal-append"],
        (Server::Child(..), _) => &["wal-append", "recover-replay"],
    };
    report.missing_stages = report.stats.missing_stages(durability);

    for state in &mut states {
        let token = state.token;
        state.client.unsubscribe(&token)?;
    }
    report.wall = started.elapsed();
    Ok(report)
}
