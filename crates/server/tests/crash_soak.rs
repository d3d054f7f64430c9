//! The crash-chaos acceptance gate: on the child lane of
//! `ppgnn_server::soak`, a child `ppgnn-server` is SIGKILLed mid-soak
//! at fixed ticks, restarted on the same data dir, and must come back
//! with zero wrong answers, zero missed invalidations, an unbroken
//! version chain, and idempotent redelivery — checked against the
//! parent's plaintext oracle.
//!
//! Two pinned seeds (the same pair as the CI soak-smoke matrix) keep
//! the run deterministic; `CARGO_BIN_EXE_ppgnn-server` points at the
//! binary Cargo built for this test profile.

use std::path::{Path, PathBuf};
use std::process::Command;

use ppgnn_core::PpgnnConfig;
use ppgnn_geo::{Poi, PoiOp, Point, Rect};
use ppgnn_server::{
    run_soak, serve_world, wal, DurabilityConfig, FsyncPolicy, GroupClient, ServerConfig,
    ServerError, ServerHandle, SoakConfig, SoakServer, WorldSeed,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppgnn-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The child lane on `data_dir`, at the default world and tick count.
fn child_lane(data_dir: &Path) -> SoakConfig {
    SoakConfig {
        server: SoakServer::Child {
            server_bin: env!("CARGO_BIN_EXE_ppgnn-server").into(),
            data_dir: data_dir.to_path_buf(),
        },
        ..SoakConfig::default()
    }
}

fn run_seed(seed: u64, tag: &str) {
    let data_dir = tmp_dir(tag);
    let mut config = child_lane(&data_dir);
    config.world.seed = seed;
    let report = run_soak(&config).expect("crash soak must not break the transport");
    assert_eq!(
        report.kills,
        2,
        "both seeded kills must fire:\n{}",
        report.render()
    );
    assert_eq!(
        report.restart_requeries,
        report.kills * report.groups as u64,
        "every group must re-plan once per restart:\n{}",
        report.render()
    );
    assert!(report.passed(), "crash soak failed:\n{}", report.render());
    // The recovery log is the CI artifact; each incarnation must have
    // opened its own section.
    let log = std::fs::read_to_string(data_dir.join("recovery.log")).unwrap();
    assert!(
        log.matches("--- child incarnation ---").count() >= 3,
        "expected one log section per incarnation:\n{log}"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn kill_mid_soak_recovers_seed_7() {
    run_seed(7, "seed7");
}

#[test]
fn kill_mid_soak_recovers_seed_23() {
    run_seed(23, "seed23");
}

/// A data dir left by an earlier run would be recovered by the child
/// while the oracle starts from this run's world; the child lane must
/// refuse it, naming the dir, before any child boots.
#[test]
fn child_lane_refuses_a_data_dir_with_durable_state() {
    let data_dir = tmp_dir("stale");
    wal::bootstrap(&data_dir, &[Poi::new(1, Point::new(0.5, 0.5))]).unwrap();
    let err = run_soak(&child_lane(&data_dir)).expect_err("a stale data dir must be refused");
    assert!(
        matches!(&err, ServerError::StaleDataDir(dir) if dir == &data_dir),
        "wrong error: {err}"
    );
    assert!(
        !data_dir.join("recovery.log").exists(),
        "no child may boot on a stale data dir"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// `--server-bin` and `--data-dir` belong to the `--crash` lane and
/// `--ticks` to a soak lane; anywhere else they are usage errors (exit
/// 2) instead of being silently ignored.
#[test]
fn loadgen_rejects_soak_flags_outside_their_lane() {
    let dir = tmp_dir("flags");
    let data_dir = dir.join("x");
    let misuses: [&[&str]; 3] = [
        &["--moving", "--data-dir", data_dir.to_str().unwrap()],
        &[
            "--moving",
            "--server-bin",
            env!("CARGO_BIN_EXE_ppgnn-server"),
        ],
        &["--ticks", "3"],
    ];
    for args in misuses {
        let status = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .output()
            .expect("loadgen must start")
            .status;
        assert_eq!(
            status.code(),
            Some(2),
            "loadgen {args:?} must be a usage error"
        );
    }
    assert!(
        !data_dir.exists(),
        "a refused --data-dir must not be created"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boots an in-process durable server on `dir` (admin token `0xBEEF`,
/// fsync always) over a small test protocol, and connects an admin
/// client to it.
fn boot_durable(
    dir: &Path,
    checkpoint_every_ops: u64,
    initial_pois: Vec<Poi>,
) -> (ServerHandle, GroupClient) {
    let protocol = PpgnnConfig {
        k: 2,
        d: 3,
        delta: 6,
        keysize: 128,
        sanitize: false,
        ..PpgnnConfig::fast_test()
    };
    let config = ServerConfig::builder()
        .admin_token(Some(0xBEEF))
        .durability(Some(DurabilityConfig {
            data_dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            checkpoint_every_ops,
        }))
        .build()
        .unwrap();
    let seed = WorldSeed::Durable {
        initial_pois,
        protocol: protocol.clone(),
        space: Rect::UNIT,
    };
    let handle = serve_world(seed, "127.0.0.1:0", config).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let admin =
        GroupClient::connect(handle.local_addr(), 9, protocol, Rect::UNIT, 2, &mut rng).unwrap();
    (handle, admin)
}

fn grid_pois() -> Vec<Poi> {
    (0..60)
        .map(|i| {
            Poi::new(
                i,
                Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 6.0 + 0.05),
            )
        })
        .collect()
}

/// The graceful twin of the kill tests: stop a durable server cleanly,
/// boot a second one on the same dir, and check the contract pieces
/// one by one — byte-identical answers, idempotent redelivery of an
/// already-acked batch, and a version chain that extends by exactly
/// one across the restart.
#[test]
fn in_process_durable_restart_resumes_exact_version() {
    let dir = tmp_dir("inproc");
    let (handle, mut admin) = boot_durable(&dir, 1000, grid_pois());
    let ops = vec![
        PoiOp::Insert(Poi::new(500, Point::new(0.5, 0.5))),
        PoiOp::Remove(3),
    ];
    let ack = admin.poi_update(0xBEEF, &ops).unwrap();
    assert_eq!(ack.version, 2, "bootstrap is v1, first batch must be v2");
    let query = [Point::new(0.49, 0.5), Point::new(0.51, 0.5)];
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let before = admin.query(&query, &mut rng).unwrap();
    handle.shutdown();

    // Second life: initial POIs are deliberately empty — everything
    // must come from the checkpoint + WAL replay.
    let (handle, mut admin) = boot_durable(&dir, 1000, Vec::new());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let after = admin.query(&query, &mut rng).unwrap();
    assert_eq!(before, after, "recovered server must answer identically");

    let redelivered = admin
        .poi_update_with_id(0xBEEF, ack.request_id, &ops)
        .unwrap();
    assert_eq!(
        redelivered.version, ack.version,
        "redelivery must not re-apply"
    );
    assert_eq!(redelivered.applied, ack.applied);

    let next = admin.poi_update(0xBEEF, &[PoiOp::Remove(5)]).unwrap();
    assert_eq!(next.version, 3, "the chain extends by exactly one");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart does not reset the checkpoint clock: the WAL tail a boot
/// replays counts toward the next checkpoint. Three one-op batches stay
/// under `checkpoint_every_ops = 4`; after a restart, one more batch
/// reaches it, which cuts a checkpoint of the replayed state (v4) and
/// opens the fresh WAL with that batch (v5), so a redelivery of it is
/// still re-acked after a further restart.
#[test]
fn replayed_wal_tail_counts_toward_the_next_checkpoint() {
    let dir = tmp_dir("ckpt-clock");
    let checkpoints = |handle: &ServerHandle| {
        let snapshot = handle.telemetry_snapshot();
        snapshot.counter("checkpoints").unwrap_or(0)
    };
    let checkpoint_files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.ends_with(".ppck"))
            .collect();
        names.sort();
        names
    };

    let (handle, mut admin) = boot_durable(&dir, 4, grid_pois());
    for id in 100..103 {
        let insert = PoiOp::Insert(Poi::new(id, Point::new(0.5, 0.5)));
        admin.poi_update(0xBEEF, &[insert]).unwrap();
    }
    assert_eq!(checkpoints(&handle), 0, "3 ops stay under the threshold");
    handle.shutdown();
    assert_eq!(checkpoint_files(), ["checkpoint-0000000000000001.ppck"]);

    let (handle, mut admin) = boot_durable(&dir, 4, Vec::new());
    let ack = admin.poi_update(0xBEEF, &[PoiOp::Remove(0)]).unwrap();
    assert_eq!(ack.version, 5);
    assert_eq!(checkpoints(&handle), 1, "replayed tail + 1 op = threshold");
    handle.shutdown();
    let cut = "checkpoint-0000000000000004.ppck";
    assert_eq!(
        checkpoint_files(),
        ["checkpoint-0000000000000001.ppck", cut]
    );

    let (handle, mut admin) = boot_durable(&dir, 4, Vec::new());
    let redelivered = admin
        .poi_update_with_id(0xBEEF, ack.request_id, &[PoiOp::Remove(0)])
        .unwrap();
    assert_eq!((redelivered.version, redelivered.applied), (5, ack.applied));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
