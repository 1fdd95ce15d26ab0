//! Seeded adversarial-input fuzz harness for the numeric containment
//! layer (DESIGN.md §11).
//!
//! Feeds every checked (`try_*`) tensor entry point — and the dar-nn
//! guard-rail wrappers — values drawn from an adversarial pool (±Inf,
//! NaN, denormals, ±1e38, zeros) and degenerate shapes (zero-width dims,
//! rank-0, mismatched ranks), asserting the containment contract:
//!
//! * a checked op returns `Ok` or a typed [`DarError`] — it NEVER panics;
//! * the dar-nn guard-rail wrappers never emit a silent NaN/Inf, and
//!   equal the raw ops on healthy inputs;
//! * Gumbel sampling stays finite and binary as temperature → 0;
//! * corrupted checkpoints are typed errors, not crashes;
//! * with taint tracking on (`DAR_TAINT=1` / `set_taint_mode`), an
//!   injected NaN is attributed to its originating op in both the
//!   training guard's `TrainEvent` log and the serving breaker's
//!   `TransitionCause`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dar::nn::gumbel::{gumbel_softmax_soft, gumbel_softmax_st};
use dar::nn::numeric::{safe_div, safe_exp, safe_ln, safe_log_softmax, safe_softmax};
use dar::tensor::ops::structural::{try_concat, try_stack};
use dar::tensor::shape::numel;
use dar::Tensor;
use proptest::prelude::*;

/// The adversarial value pool: every IEEE-754 hazard class.
const POOL: [f32; 16] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    1.0e38,
    -1.0e38,
    1.0e-38,
    -1.0e-38,
    1.0e-40,  // subnormal
    -1.0e-44, // subnormal
    0.0,
    -0.0,
    1.0,
    -2.5,
];

/// Strategy: `n` values drawn from the pool (the vendored proptest shim
/// bounds `any::<f32>()`, so adversarial values go through index-mapping).
fn adversarial(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0usize..POOL.len(), n)
        .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
}

/// Shape pool: healthy, degenerate (zero-width), and rank-0 shapes.
const SHAPES: [&[usize]; 7] = [&[4], &[2, 2], &[1, 4], &[4, 1], &[2, 0], &[0], &[]];

fn tensor_for(shape: &[usize], vals: &[f32]) -> Tensor {
    Tensor::new(vals[..numel(shape)].to_vec(), shape)
}

/// Assert `f` does not panic; its value (Ok or typed Err) is the contract.
fn no_panic<T>(label: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("{label} panicked on adversarial input"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Checked binary/unary/reduction/structural ops accept any pool
    /// values in any (possibly degenerate or mismatched) shape without
    /// panicking.
    #[test]
    fn checked_ops_never_panic(
        vals_a in adversarial(4),
        vals_b in adversarial(4),
        sa in 0usize..SHAPES.len(),
        sb in 0usize..SHAPES.len(),
        axis in 0usize..3,
    ) {
        let a = tensor_for(SHAPES[sa], &vals_a);
        let b = tensor_for(SHAPES[sb], &vals_b);

        let _ = no_panic("try_add", || a.try_add(&b).map(|t| t.to_vec()));
        let _ = no_panic("try_sub", || a.try_sub(&b).map(|t| t.to_vec()));
        let _ = no_panic("try_mul", || a.try_mul(&b).map(|t| t.to_vec()));
        let _ = no_panic("try_div", || a.try_div(&b).map(|t| t.to_vec()));
        let _ = no_panic("try_matmul", || a.try_matmul(&b).map(|t| t.to_vec()));
        let _ = no_panic("try_bmm", || a.try_bmm(&b).map(|t| t.to_vec()));
        let _ = no_panic("try_softmax", || a.try_softmax().map(|t| t.to_vec()));
        let _ = no_panic("try_log_softmax", || a.try_log_softmax().map(|t| t.to_vec()));
        let _ = no_panic("try_sum_axis", || a.try_sum_axis(axis, false).map(|t| t.to_vec()));
        let _ = no_panic("try_mean_axis", || a.try_mean_axis(axis, true).map(|t| t.to_vec()));
        let _ = no_panic("try_max_axis", || a.try_max_axis(axis, false).map(|t| t.to_vec()));
        let _ = no_panic("try_reshape", || a.try_reshape(&[2, 2]).map(|t| t.to_vec()));
        let _ = no_panic("try_narrow", || a.try_narrow(axis, 1, 2).map(|t| t.to_vec()));
        let _ = no_panic("try_concat", || try_concat(&[a.clone(), b.clone()], axis).map(|t| t.to_vec()));
        let _ = no_panic("try_stack", || try_stack(&[a.clone(), b.clone()]).map(|t| t.to_vec()));
        let _ = no_panic("try_argmax_rows", || a.try_argmax_rows());
        let _ = no_panic("try_item", || a.try_item());
        let _ = no_panic("try_gather_rows", || a.try_gather_rows(&[0, 7]).map(|t| t.to_vec()));
        let _ = no_panic("try_one_hot", || Tensor::try_one_hot(&[0, 3], 2).map(|t| t.to_vec()));

        // Unary elementwise ops are total: never a panic for any input.
        let y = no_panic("unary chain", || {
            a.sigmoid().tanh().relu().abs().square().sqrt().to_vec()
        });
        prop_assert_eq!(y.len(), a.len());
    }

    /// The dar-nn safe wrappers emit only finite values no matter what
    /// goes in, and are bit-equal to the raw ops on finite inputs.
    #[test]
    fn guard_rails_contain_all_pool_values(vals in adversarial(4), den in adversarial(4)) {
        let x = Tensor::new(vals.clone(), &[2, 2]);
        let d = Tensor::new(den, &[2, 2]);
        for (label, out) in [
            ("safe_softmax", safe_softmax(&x).to_vec()),
            ("safe_log_softmax", safe_log_softmax(&x).to_vec()),
            ("safe_div", safe_div(&x, &d).to_vec()),
            ("safe_exp", safe_exp(&x).to_vec()),
            ("safe_ln", safe_ln(&x).to_vec()),
        ] {
            prop_assert!(
                out.iter().all(|v| v.is_finite()),
                "{} leaked a non-finite value: {:?} from {:?}", label, out, vals
            );
        }
        // Identity on healthy inputs: the rails change nothing when every
        // value is finite and normal.
        let clean = Tensor::new(vec![0.25, -1.5, 3.0, 0.5], &[2, 2]);
        let den = Tensor::new(vec![2.0, -0.5, 4.0, 1.5], &[2, 2]);
        prop_assert_eq!(safe_softmax(&clean).to_vec(), clean.softmax().to_vec());
        prop_assert_eq!(safe_log_softmax(&clean).to_vec(), clean.log_softmax().to_vec());
        prop_assert_eq!(safe_div(&clean, &den).to_vec(), clean.div(&den).to_vec());
        prop_assert_eq!(safe_exp(&clean).to_vec(), clean.exp().to_vec());
        prop_assert_eq!(safe_ln(&clean).to_vec(), clean.ln().to_vec());
    }

    /// Gumbel straight-through sampling survives temperature → 0 and
    /// extreme logits: output is exactly binary, soft surrogate finite.
    #[test]
    fn gumbel_stays_binary_at_extreme_temperature(
        seed in 0u64..1000,
        tau_idx in 0usize..4,
        logit_idx in proptest::collection::vec(0usize..6, 4),
    ) {
        const TAUS: [f32; 4] = [1e-6, 1e-12, 1e-30, 1e-45];
        const LOGITS: [f32; 6] = [40.0, -40.0, 1.0e30, -1.0e30, 0.0, 5.0];
        let vals: Vec<f32> = logit_idx.into_iter().map(|i| LOGITS[i]).collect();
        let logits = Tensor::new(vals, &[2, 2]);
        let mut rng = dar::rng(seed);
        let y = gumbel_softmax_st(&logits, TAUS[tau_idx], &mut rng).to_vec();
        prop_assert!(y.iter().all(|&v| v == 0.0 || v == 1.0), "non-binary: {:?}", y);
        for row in y.chunks(2) {
            prop_assert_eq!(row.iter().sum::<f32>(), 1.0);
        }
        let mut rng = dar::rng(seed);
        let soft = gumbel_softmax_soft(&logits, TAUS[tau_idx], &mut rng).to_vec();
        prop_assert!(soft.iter().all(|v| v.is_finite()), "soft leaked: {:?}", soft);
    }

    /// Corrupted checkpoints (truncation, bit flips, random garbage) load
    /// as typed errors — never a panic, never a silently wrong tensor.
    #[test]
    fn corrupted_checkpoints_are_typed_errors(seed in 0u64..500, garbage_len in 0usize..64) {
        use dar::core::fault::{corrupt_bitflip, corrupt_truncate};
        use dar::tensor::serial;

        let mut path = std::env::temp_dir();
        path.push(format!("dar_numfuzz_{}_{}", std::process::id(), seed));

        serial::save_path(&path, &[Tensor::param(vec![0.5; 8], &[2, 4])]).unwrap();
        corrupt_truncate(&path, seed).unwrap();
        prop_assert!(no_panic("load truncated", || serial::load_checkpoint_path(&path)).is_err());

        serial::save_path(&path, &[Tensor::param(vec![0.5; 8], &[2, 4])]).unwrap();
        corrupt_bitflip(&path, seed).unwrap();
        prop_assert!(no_panic("load bitflipped", || serial::load_checkpoint_path(&path)).is_err());

        // Pure garbage bytes.
        let bytes: Vec<u8> = (0..garbage_len).map(|i| (seed as usize * 31 + i * 7) as u8).collect();
        std::fs::write(&path, bytes).unwrap();
        prop_assert!(no_panic("load garbage", || serial::load_checkpoint_path(&path)).is_err());
        std::fs::remove_file(&path).ok();
    }
}

/// With taint tracking on, a NaN injected through a real `div` op shows
/// up attributed to `div` in the training guard's `TrainEvent` log, and
/// the run still recovers via rollback.
#[test]
fn train_event_names_the_tainting_op() {
    use dar::prelude::*;
    use dar::tensor::{clear_taint, set_taint_mode};

    set_taint_mode(true); // the in-process equivalent of DAR_TAINT=1
    clear_taint();
    let synth = SynthConfig {
        n_train: 16,
        n_dev: 8,
        n_test: 8,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let mut rng = dar::rng(900);
    let data = SynBeer::generate(&synth, &mut rng);
    let cfg = RationaleConfig {
        emb_dim: 16,
        hidden: 8,
        ..Default::default()
    };
    let emb = SharedEmbedding::random(data.vocab.len(), 16, &mut rng);
    let ml = pretrain::max_len(&data);
    let inner = Rnp::new(&cfg, &emb, ml, &mut rng);
    // One-shot fault at step 1: NaN manufactured by a real 0/0 div.
    let mut model = FaultyModel::new(inner, FaultPlan::taint_nan_at(1));
    let tcfg = TrainConfig {
        epochs: 1,
        batch_size: 4,
        patience: None,
        ..Default::default()
    };
    let report = Trainer::guarded(tcfg, GuardPolicy::default())
        .try_fit(&mut model, &data, &mut rng)
        .expect("one-shot fault must be recoverable");
    set_taint_mode(false);
    clear_taint();

    let tripped: Vec<&GuardReason> = report
        .events
        .iter()
        .filter_map(|e| match e {
            TrainEvent::GuardTripped { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert!(
        tripped.iter().any(|r| matches!(
            r,
            GuardReason::NonFiniteLoss {
                origin: Some("div"),
                ..
            }
        )),
        "no NonFiniteLoss event named `div`: {tripped:?}"
    );
    assert!(report.rollbacks() >= 1);
}

/// End-to-end serving: with `DAR_TAINT=1` in the environment, NaN logits
/// produced by a real op inside a worker trip the breaker with a
/// `GeneratorFailures` cause that names the op — and the poisoned batch
/// is still answered (degraded) instead of crashing the worker.
#[test]
fn breaker_cause_names_the_tainting_op() {
    use std::sync::Arc;

    use dar::prelude::*;
    use dar::serve::{BreakerPolicy, BreakerState, ServeConfig, Server, TransitionCause};

    // Workers read DAR_TAINT when their thread-local initializes, so the
    // env var must be set before Server::start spawns them.
    std::env::set_var("DAR_TAINT", "1");

    let synth = SynthConfig {
        n_train: 32,
        n_dev: 8,
        n_test: 8,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(910));
    let cfg = RationaleConfig {
        emb_dim: 12,
        hidden: 12,
        ..Default::default()
    };
    let vocab_rows = data.vocab.len() + 1;
    let nan_tok = data.vocab.len(); // absent from every organic review
    let ml = pretrain::max_len(&data);
    let factory: dar::serve::ModelFactory = {
        Arc::new(move || {
            let mut rng = dar::rng(911);
            let emb = SharedEmbedding::random(vocab_rows, cfg.emb_dim, &mut rng);
            let rnp = Rnp::new(&cfg, &emb, ml, &mut rng);
            Box::new(ChaosModel::new(
                rnp,
                ChaosPlan {
                    nan_logit_token: Some(nan_tok),
                    ..Default::default()
                },
            ))
        })
    };
    let server = Server::start(
        ServeConfig {
            replicas: 1,
            max_batch: 1,
            vocab_size: vocab_rows,
            max_len: ml,
            breaker: BreakerPolicy {
                failure_threshold: 1,
                ..BreakerPolicy::default()
            },
            ..ServeConfig::default()
        },
        factory,
    );

    let mut review = data.test[0].clone();
    review.ids[0] = nan_tok;
    let out = server
        .submit(review)
        .wait()
        .expect("poisoned batch must still be answered");
    assert!(out.degraded, "NaN logits must fall back to the predictor");
    assert_eq!(server.breaker_state(), BreakerState::Degraded);
    let events = server.breaker_events();
    assert_eq!(
        events[0].cause,
        TransitionCause::GeneratorFailures {
            origin: Some("div")
        },
        "breaker cause did not name the tainting op: {events:?}"
    );
    server.shutdown();
    std::env::remove_var("DAR_TAINT");
}
