//! Standalone shard server: hosts one JoinBoost engine behind the wire
//! protocol, for multi-process sharding over sockets.
//!
//! ```text
//! shard_server [--addr 127.0.0.1:0] [--allow-swap] [--fail-after N] [--stall]
//!              [--drop-every N] [--flaky-after N] [--grace-ms MS]
//!              [--reply-jitter SEED:MAX_MICROS]
//!              [--storage DIR] [--checkpoint-bytes N]
//!              [--job-checkpoint-iters K] [--crash-after-iters N]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once bound (an ephemeral port with
//! `--addr 127.0.0.1:0`, the default), then serves until killed. The
//! `--fail-after`/`--stall` flags are the fault-injection knobs of the
//! test suite: after N requests the server behaves like a crashed
//! (respectively hung) process. `--drop-every`/`--flaky-after` inject
//! *recovering* faults — connections drop but the server keeps serving,
//! exercising the client's reconnect-and-replay path — and `--grace-ms`
//! sets how long a disconnected session's state survives.
//! `--reply-jitter SEED:MAX_MICROS` delays each reply by a deterministic
//! pseudo-random duration, scrambling the completion order of pipelined
//! requests without changing any payload (the interleaving-equivalence
//! tests' knob).
//!
//! `--storage DIR` hosts the paged, WAL-backed engine on `DIR` instead of
//! the in-memory one: tables, the job registry and training checkpoints
//! survive a kill, and a restart on the same directory resumes
//! interrupted jobs. `--checkpoint-bytes` bounds the WAL (compact it
//! into a base once that many bytes are logged past the last one),
//! `--job-checkpoint-iters` persists running forests every K
//! iterations, and `--crash-after-iters` aborts the process after N
//! trained iterations (the restart test's kill switch).

use std::net::TcpListener;
use std::time::Duration;

use joinboost::backend::WireServer;
use joinboost_engine::{Database, EngineConfig};

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut allow_swap = false;
    let mut fail_after = None;
    let mut stall = false;
    let mut drop_every = None;
    let mut flaky_after = None;
    let mut grace_ms: Option<u64> = None;
    let mut reply_jitter: Option<(u64, u64)> = None;
    let mut storage: Option<String> = None;
    let mut checkpoint_bytes: Option<u64> = None;
    let mut job_checkpoint_iters: Option<u64> = None;
    let mut crash_after_iters: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    fn number(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .parse()
            .unwrap_or_else(|_| panic!("{flag} needs a number"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().expect("--addr needs a value"),
            "--allow-swap" => allow_swap = true,
            "--fail-after" => fail_after = Some(number(&mut args, "--fail-after")),
            "--stall" => stall = true,
            "--drop-every" => drop_every = Some(number(&mut args, "--drop-every")),
            "--flaky-after" => flaky_after = Some(number(&mut args, "--flaky-after")),
            "--grace-ms" => grace_ms = Some(number(&mut args, "--grace-ms")),
            "--reply-jitter" => {
                let spec = args.next().expect("--reply-jitter needs SEED:MAX_MICROS");
                let (seed, max) = spec
                    .split_once(':')
                    .expect("--reply-jitter needs SEED:MAX_MICROS");
                reply_jitter = Some((
                    seed.parse().expect("--reply-jitter seed must be a number"),
                    max.parse().expect("--reply-jitter max must be a number"),
                ));
            }
            "--storage" => storage = Some(args.next().expect("--storage needs a directory")),
            "--checkpoint-bytes" => {
                checkpoint_bytes = Some(number(&mut args, "--checkpoint-bytes"))
            }
            "--job-checkpoint-iters" => {
                job_checkpoint_iters = Some(number(&mut args, "--job-checkpoint-iters"))
            }
            "--crash-after-iters" => {
                crash_after_iters = Some(number(&mut args, "--crash-after-iters"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: shard_server [--addr HOST:PORT] [--allow-swap] \
                     [--fail-after N] [--stall] [--drop-every N] \
                     [--flaky-after N] [--grace-ms MS] \
                     [--reply-jitter SEED:MAX_MICROS] [--storage DIR] \
                     [--checkpoint-bytes N] [--job-checkpoint-iters K] \
                     [--crash-after-iters N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let mut config = match &storage {
        Some(dir) => EngineConfig::paged(dir),
        None => EngineConfig::duckdb_mem(),
    };
    config.allow_swap = allow_swap;
    if storage.is_some() {
        config.checkpoint_bytes = checkpoint_bytes.or(config.checkpoint_bytes);
    }
    let listener = TcpListener::bind(&addr).expect("bind");
    let local = listener.local_addr().expect("local addr");
    // The parent (test rig or operator) reads this line to learn the
    // ephemeral port.
    println!("LISTENING {local}");
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush");
    let mut builder = WireServer::builder(Database::new(config)).stall(stall);
    if let Some(n) = fail_after {
        builder = builder.fail_after(n);
    }
    if let Some(n) = drop_every {
        builder = builder.drop_every(n);
    }
    if let Some(n) = flaky_after {
        builder = builder.flaky_after(n);
    }
    if let Some(ms) = grace_ms {
        builder = builder.session_grace(Duration::from_millis(ms));
    }
    if let Some((seed, max_micros)) = reply_jitter {
        builder = builder.reply_jitter(seed, max_micros);
    }
    if let Some(k) = job_checkpoint_iters {
        builder = builder.job_checkpoint_iters(k);
    }
    if let Some(n) = crash_after_iters {
        builder = builder.crash_after_iters(n);
    }
    builder.serve(listener);
}
