//! `dar-serve` — demo + benchmark driver for the resilient serving
//! runtime.
//!
//! **Demo mode** (default): trains a tiny RNP, checkpoints it, then
//! replays a deterministic traffic trace through a [`Server`]: clean
//! requests, a mid-trace hot weight swap, a corrupted checkpoint offer
//! (must be rejected without a blip), and a tail of malformed requests
//! (must bounce at admission). The human-readable report lands in
//! `results/serve_bench.txt`.
//!
//! **Health mode** (`--health-bench`): wedges one replica with a sticky
//! livelock at 1/2/4 replicas and measures the self-healing layer
//! (DESIGN.md §16): stall-detection latency (stall onset → quarantine)
//! and hedge overhead (extra end-to-end latency a hedged victim pays
//! over a clean request), recorded in `results/BENCH_health.json`. It
//! exits non-zero when either passes 115% of the time the bench's own
//! `HealthPolicy` and wedge deadline set.
//!
//! ```sh
//! dar-serve                          # demo: 400 requests, auto replicas
//! dar-serve --requests 1000 --replicas 2 --seed 7 --out results
//! dar-serve --health-bench --out results
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dar::cli::{bool_flag, checked, flag, Spec};
use dar::core::fault::StallPlan;
use dar::data::Review;
use dar::prelude::*;
use dar::serve::{HealthPolicy, ServeConfig, ServeError, Server};
use dar::tensor::serial::{self, Checkpoint};

const SPEC: Spec = Spec {
    usage: "usage: dar-serve [--health-bench] [--requests N] [--replicas N] [--seed N] [--out DIR]",
    valued: &["--requests", "--replicas", "--seed", "--out"],
    switches: &["--health-bench"],
    positionals: 0,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    checked(&args, &SPEC);
    let seed = flag(&args, "--seed").unwrap_or(42);
    let out_dir = flag(&args, "--out").unwrap_or_else(|| PathBuf::from("results"));
    if bool_flag(&args, "--health-bench") {
        health_bench(seed, &out_dir);
    } else {
        let n_requests = flag(&args, "--requests").unwrap_or(400);
        let replicas = flag(&args, "--replicas").unwrap_or(0);
        demo(n_requests, replicas, seed, &out_dir);
    }
}

// ---- Self-healing bench -------------------------------------------------

/// Wedge one replica with a sticky livelock at 1/2/4 replicas and
/// measure the watchdog (DESIGN.md §16): `detection_us` is stall onset →
/// quarantine, `hedge_overhead_us` is the extra end-to-end latency a
/// hedged victim pays over a clean request on the same server. Best
/// (minimum) of 3 repetitions per width — the other repetitions measure
/// scheduler luck; correctness is demanded of every repetition. The
/// headline columns are the 2-replica width (the smallest that can
/// hedge); other widths ride along as `_wN` columns.
///
/// Both timings are gated against the instant the policy lets the
/// watchdog condemn the wedge, `max(stall_budget, wedge deadline +
/// deadline_grace)` after onset: detection may not pass `SLACK_PCT`% of
/// that instant, and hedge overhead may not pass `SLACK_PCT`% of what is
/// left of it once the victims are submitted.
fn health_bench(seed: u64, out_dir: &std::path::Path) {
    const WIDTHS: [usize; 3] = [1, 2, 4];
    const HEADLINE_WIDTH: usize = 2;
    const REPS: usize = 3;
    const VICTIMS: usize = 8;
    const WEDGE_DEADLINE: Duration = Duration::from_millis(200);
    // Lets the wedge get claimed before the victims queue behind it.
    const CLAIM_WAIT: Duration = Duration::from_millis(40);
    const SLACK_PCT: u128 = 115;

    let synth = SynthConfig {
        n_train: 128,
        n_dev: 32,
        n_test: 64,
        filler_sentences: 0,
        filler_in_sentence: (0, 1),
        sentiment_tokens: 1,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(seed));
    let cfg = RationaleConfig {
        emb_dim: 8,
        hidden: 8,
        sparsity: 0.16,
        ..Default::default()
    };
    let ml = pretrain::max_len(&data);
    // One trigger row past the organic vocabulary wedges a batch.
    let spin_tok = data.vocab.len();
    let vocab_rows = data.vocab.len() + 1;
    let policy = HealthPolicy {
        stall_budget: Duration::from_millis(150),
        deadline_grace: Duration::from_millis(60),
        probation_probes: 1,
        hedge_min_budget: Duration::from_millis(1),
    };
    let condemn = policy
        .stall_budget
        .max(WEDGE_DEADLINE + policy.deadline_grace);
    let detection_bound_us = (condemn.as_micros() * SLACK_PCT / 100) as u64;
    let hedge_bound_us = ((condemn - CLAIM_WAIT).as_micros() * SLACK_PCT / 100) as u64;

    let mut detection = Vec::new(); // per width, best-of-REPS, us
    let mut hedge = Vec::new(); // per width (>= 2), best-of-REPS, us
    let mut healthy = true;
    for width in WIDTHS {
        let mut best_det = u64::MAX;
        let mut best_hedge = u64::MAX;
        for _rep in 0..REPS {
            let factory: dar::serve::ModelFactory = Arc::new(move || {
                let mut rng = dar::rng(seed + 1);
                let emb = SharedEmbedding::random(vocab_rows, cfg.emb_dim, &mut rng);
                let rnp = Rnp::new(&cfg, &emb, ml, &mut rng);
                Box::new(ChaosModel::new(
                    rnp,
                    ChaosPlan {
                        stall: StallPlan {
                            spin_token: Some((spin_tok, 600)),
                            sticky: true,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                ))
            });
            let server = Server::start(
                ServeConfig {
                    replicas: width,
                    max_batch: 8,
                    queue_cap: 64,
                    vocab_size: vocab_rows,
                    max_len: ml,
                    steal: false,
                    health: policy.clone(),
                    ..ServeConfig::default()
                },
                factory,
            );
            let tenant = 1u64;

            // Clean-latency baseline on the soon-to-be-wedged shard.
            let base_started = Instant::now();
            for i in 0..VICTIMS {
                server
                    .submit_for_tenant(
                        data.test[i % data.test.len()].clone(),
                        tenant,
                        Duration::from_secs(10),
                    )
                    .wait()
                    .expect("baseline traffic serves");
            }
            let baseline_us = base_started.elapsed().as_micros() as u64 / VICTIMS as u64;

            // Stall onset: a short-deadline trigger wedges the replica.
            let mut wedged = data.test[0].clone();
            wedged.ids[0] = spin_tok;
            let onset = Instant::now();
            let wedge = server.submit_for_tenant(wedged, tenant, WEDGE_DEADLINE);
            std::thread::sleep(CLAIM_WAIT);
            let victim_started = Instant::now();
            let victims: Vec<_> = (0..VICTIMS)
                .map(|i| {
                    server.submit_for_tenant(
                        data.test[i % data.test.len()].clone(),
                        tenant,
                        Duration::from_secs(10),
                    )
                })
                .collect();
            while server.stats().quarantines < 1 {
                if onset.elapsed() > Duration::from_secs(5) {
                    eprintln!("[dar-serve] width {width}: quarantine never detected");
                    healthy = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let det_us = onset.elapsed().as_micros() as u64;
            healthy &= matches!(wedge.wait(), Err(ServeError::DeadlineExceeded));
            let mut victim_sum_us = 0u64;
            for t in victims {
                match t.wait() {
                    Ok(_) if width >= 2 => {
                        victim_sum_us += victim_started.elapsed().as_micros() as u64;
                    }
                    Err(ServeError::Abandoned) if width == 1 => {}
                    other => {
                        eprintln!("[dar-serve] width {width}: unexpected victim verdict {other:?}");
                        healthy = false;
                    }
                }
            }
            let stats = server.shutdown();
            healthy &= stats.quarantines == 1;
            best_det = best_det.min(det_us);
            if width >= 2 {
                let mean_us = victim_sum_us / VICTIMS as u64;
                best_hedge = best_hedge.min(mean_us.saturating_sub(baseline_us).max(1));
                healthy &= stats.hedged == VICTIMS as u64;
            }
        }
        eprintln!(
            "[dar-serve] width {width}: detection {best_det} us (bound {detection_bound_us}){}",
            if width >= 2 {
                format!(", hedge overhead {best_hedge} us (bound {hedge_bound_us})")
            } else {
                String::new()
            }
        );
        if best_det > detection_bound_us {
            eprintln!("[dar-serve] width {width}: detection past its bound");
            healthy = false;
        }
        detection.push(best_det);
        if width >= 2 {
            if best_hedge > hedge_bound_us {
                eprintln!("[dar-serve] width {width}: hedge overhead past its bound");
                healthy = false;
            }
            hedge.push(best_hedge);
        }
    }

    std::fs::create_dir_all(out_dir).expect("creating output dir");
    // Headline columns are the 2-replica width, recorded as `workers`.
    let hl = WIDTHS
        .iter()
        .position(|&w| w == HEADLINE_WIDTH)
        .expect("headline width is part of the sweep");
    let mut json = format!(
        "{{\"schema_version\": 1, \"workers\": {HEADLINE_WIDTH}, \"seed\": {seed}, \
          \"victims\": {VICTIMS}, \"detection_us\": {}, \"hedge_overhead_us\": {}",
        detection[hl],
        hedge[hl - 1],
    );
    for (i, width) in WIDTHS.iter().enumerate() {
        json += &format!(", \"detection_us_w{width}\": {}", detection[i]);
        if *width >= 2 {
            json += &format!(", \"hedge_overhead_us_w{width}\": {}", hedge[i - 1]);
        }
    }
    json += "}\n";
    std::fs::write(out_dir.join("BENCH_health.json"), json).expect("writing BENCH_health.json");
    eprintln!(
        "[dar-serve] health bench written: {}",
        out_dir.join("BENCH_health.json").display()
    );
    if !healthy {
        eprintln!("[dar-serve] UNHEALTHY health bench — see lines above");
        std::process::exit(1);
    }
    eprintln!("[dar-serve] ok");
}

// ---- Demo trace ---------------------------------------------------------

fn demo(n_requests: usize, replicas: usize, seed: u64, out_dir: &std::path::Path) {
    // A tiny but real model: train one epoch so the swapped-in weights
    // are visibly different from the factory's random init.
    let synth = SynthConfig {
        n_train: 128,
        n_dev: 32,
        n_test: 64,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(seed));
    let cfg = RationaleConfig {
        emb_dim: 16,
        hidden: 24,
        sparsity: 0.16,
        ..Default::default()
    };
    let ml = pretrain::max_len(&data);
    let vocab = data.vocab.len();

    eprintln!("[dar-serve] training a tiny RNP for the hot-swap checkpoint...");
    let mut model = {
        let mut rng = dar::rng(seed + 1);
        let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
        Rnp::new(&cfg, &emb, ml, &mut rng)
    };
    let mut rng = dar::rng(seed + 2);
    let report = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 32,
        patience: None,
        ..Default::default()
    })
    .fit(&mut model, &data, &mut rng);
    eprintln!(
        "[dar-serve] trained: acc {:.1}%  rationale F1 {:.1}%",
        report.test.acc.unwrap_or(0.0) * 100.0,
        report.test.f1 * 100.0
    );

    std::fs::create_dir_all(out_dir).expect("creating output dir");
    let ckpt_path = out_dir.join("serve_demo.ckpt");
    serial::save_checkpoint_path(&ckpt_path, &Checkpoint::new(model.params(), Vec::new()))
        .expect("saving demo checkpoint");
    drop(model);

    // The serving factory rebuilds the same architecture from the same
    // init seed on each worker thread; the trained weights arrive via the
    // checkpoint swap, exactly as they would in production.
    let factory: dar::serve::ModelFactory = Arc::new(move || {
        let mut rng = dar::rng(seed + 1);
        let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
        Box::new(Rnp::new(&cfg, &emb, ml, &mut rng))
    });
    let serve_cfg = ServeConfig {
        replicas,
        queue_cap: n_requests + 16,
        vocab_size: vocab,
        max_len: ml,
        ..ServeConfig::default()
    };
    let n_replicas = serve_cfg.effective_replicas();
    let server = Server::start(serve_cfg, factory);
    eprintln!(
        "[dar-serve] serving with {n_replicas} replicas (DAR_THREADS budget {})",
        dar_par::max_threads()
    );

    // ---- Deterministic traffic trace ---------------------------------
    let reviews: Vec<Review> = (0..n_requests)
        .map(|i| data.test[i % data.test.len()].clone())
        .collect();
    let half = n_requests / 2;
    let started = Instant::now();

    // First half on the factory weights (v1).
    let first: Vec<_> = reviews[..half]
        .iter()
        .map(|r| server.submit(r.clone()))
        .collect();
    let ok_first = first
        .into_iter()
        .map(|t| t.wait())
        .filter(|r| r.is_ok())
        .count();

    // Hot swap mid-trace: the trained checkpoint becomes v2 between
    // batches, with in-flight requests finishing on v1.
    let v2 = server
        .offer_checkpoint(&ckpt_path)
        .expect("valid checkpoint accepted");
    eprintln!("[dar-serve] hot swap accepted: weights v{v2}");

    // A corrupted copy must be rejected while serving continues.
    let bad_path = out_dir.join("serve_demo.bad.ckpt");
    std::fs::copy(&ckpt_path, &bad_path).expect("copying checkpoint");
    dar::core::fault::corrupt_bitflip(&bad_path, seed).expect("corrupting copy");
    let rejected_offer = server.offer_checkpoint(&bad_path).is_err();
    eprintln!(
        "[dar-serve] corrupted offer rejected: {rejected_offer} (still v{})",
        server.weights_version()
    );

    // Second half on the trained weights (v2).
    let second: Vec<_> = reviews[half..]
        .iter()
        .map(|r| server.submit(r.clone()))
        .collect();
    let ok_second = second
        .into_iter()
        .map(|t| t.wait())
        .filter(|r| r.is_ok())
        .count();
    let elapsed = started.elapsed();

    // A burst of malformed requests bounces at admission, not in workers.
    let malformed = (0..16)
        .map(|i| dar::core::fault::malformed_review(vocab, seed + i))
        .map(|r| server.submit(r).wait())
        .filter(|r| matches!(r, Err(ServeError::Rejected(_))))
        .count();

    let stats = server.shutdown();
    std::fs::remove_file(&bad_path).ok();

    let throughput = (ok_first + ok_second) as f64 / elapsed.as_secs_f64();
    let txt = format!(
        "dar-serve bench — {n} requests, {w} replicas, seed {s}\n\
         served (v1 weights):    {a}\n\
         served (v2 weights):    {b}\n\
         hot swap accepted:      v{v2}\n\
         corrupted offer:        {rej}\n\
         malformed bounced:      {malformed}/16\n\
         throughput:             {tp:.1} req/s\n\
         latency p50:            {p50} us\n\
         latency p99:            {p99} us\n\
         latency max:            {max} us\n\
         panics:                 {panics}\n",
        n = n_requests,
        w = n_replicas,
        s = seed,
        a = ok_first,
        b = ok_second,
        rej = if rejected_offer {
            "rejected"
        } else {
            "ACCEPTED (BUG)"
        },
        tp = throughput,
        p50 = stats.p50_us,
        p99 = stats.p99_us,
        max = stats.max_us,
        panics = stats.panics,
    );
    print!("{txt}");
    std::fs::write(out_dir.join("serve_bench.txt"), &txt).expect("writing serve_bench.txt");

    match dar::obs::write_snapshot(out_dir, "serve") {
        Ok(p) => eprintln!("[dar-serve] obs snapshot: {}", p.display()),
        Err(e) => eprintln!("[dar-serve] obs snapshot failed: {e}"),
    }

    let healthy = ok_first + ok_second == n_requests
        && rejected_offer
        && malformed == 16
        && stats.panics == 0;
    if !healthy {
        eprintln!("[dar-serve] UNHEALTHY run — see counters above");
        std::process::exit(1);
    }
    eprintln!("[dar-serve] ok");
}
