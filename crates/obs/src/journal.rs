//! The typed event journal: one ordered stream unifying the signals that
//! previously lived in four incompatible formats (`TrainEvent`, breaker
//! `TransitionCause`, `TaintRecord`, ad-hoc bench prints).
//!
//! Events belong to the snapshot's *deterministic* section: they are
//! emitted from deterministic control flow (epoch boundaries, state-machine
//! transitions, the first-wins taint latch), carry no wall-clock fields,
//! and are serialized in emission order.

use crate::json;

/// One journal entry. Producers in other crates convert their native
/// event types into this; `dar-obs` stays dependency-free.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A training epoch finished clean (plain or guarded trainer).
    EpochDone {
        epoch: u64,
        train_loss: f32,
        dev_score: f32,
    },
    /// A divergence guard tripped; `reason` is the guard's display form.
    GuardTripped { epoch: u64, reason: String },
    /// Guarded training rolled back to its last clean epoch boundary.
    RolledBack {
        to_epoch: u64,
        retry: u64,
        lr_scale: f32,
    },
    /// The guarded trainer's retry budget ran out.
    RetriesExhausted { epoch: u64 },
    /// An epoch-boundary checkpoint was written durably.
    CheckpointSaved { next_epoch: u64 },
    /// Training resumed from a checkpoint at this epoch.
    CheckpointResumed { next_epoch: u64 },
    /// The serving circuit breaker changed state.
    BreakerTransition {
        from: String,
        to: String,
        cause: String,
    },
    /// The numeric taint latch caught the first non-finite op result of a
    /// unit of work (train step / inference batch).
    TaintLatched {
        op: String,
        node_id: u64,
        first_bad_index: u64,
    },
    /// The serving weight store published a new generation.
    WeightsSwapped { version: u64 },
    /// A candidate checkpoint entered canary evaluation on a deterministic
    /// traffic slice (promotion state machine: Candidate → Canary).
    CanaryStarted { version: u64 },
    /// The canary verdict promoted the candidate to serve all traffic
    /// (Canary → Promoted). Always preceded by the `weights_swapped`
    /// event of the same version.
    CandidatePromoted { version: u64 },
    /// The canary verdict rolled the candidate back; the incumbent keeps
    /// serving all traffic untouched (Canary → RolledBack). `cause` is
    /// the snake_case rollback reason.
    CandidateRolledBack { version: u64, cause: String },
    /// An offered checkpoint was rejected before publication (CRC
    /// mismatch, shape mismatch, …). `cause` is a stable snake_case
    /// classifier; `detail` the underlying error text.
    OfferRejected { cause: String, detail: String },
    /// The supervisor delayed a worker respawn (bounded exponential
    /// backoff with seeded jitter) instead of retrying immediately.
    RespawnBackoff {
        slot: u64,
        attempt: u64,
        delay_ms: u64,
    },
    /// An idle replica stole a micro-batch of `n` requests from the
    /// longest sibling queue (work stealing; DESIGN.md §14). Emitted
    /// only when a steal actually happens, so sequential traffic leaves
    /// the deterministic section untouched.
    ReplicaSteal { thief: u64, victim: u64, n: u64 },
    /// The watchdog saw a replica holding work but silent past its
    /// missed-heartbeat budget: Healthy → Suspect (DESIGN.md §16).
    /// Emitted once per stall episode; like every health event, only
    /// when a stall actually occurs, so clean traffic keeps the
    /// deterministic section byte-identical.
    ReplicaStalled { slot: u64 },
    /// A Suspect replica exhausted its deadline-aware grace and was
    /// quarantined: routing detours around it, its queue and in-flight
    /// slots are force-drained, and its thread is abandoned.
    ReplicaQuarantined { slot: u64 },
    /// A respawned replica passed its probation probes and rejoined the
    /// healthy set; original routing is restored.
    ReplicaRejoined { slot: u64 },
    /// A request stranded on a quarantined replica was re-dispatched to
    /// a healthy sibling with deadline budget to spare.
    RequestHedged { from: u64, to: u64 },
    /// One record was committed to the durable write-ahead state
    /// journal; `record` is the stable record kind (`promoted`,
    /// `rolled_back`, `feed_cursor`, …) (DESIGN.md §15).
    WalAppend { record: &'static str },
    /// WAL replay found a torn tail and truncated `lost_bytes` of
    /// uncommitted garbage at the end of the log.
    WalTruncatedTail { lost_bytes: u64 },
    /// Crash recovery began: the durable state dir is being replayed.
    RecoveryStarted,
    /// Crash recovery finished: `records` journal entries replayed, the
    /// incumbent is generation `generation`.
    RecoveryComplete { records: u64, generation: u64 },
    /// Escape hatch for one-off signals; keep `kind` snake_case.
    Custom { kind: String, detail: String },
}

impl ObsEvent {
    /// Stable snake_case discriminator written into the snapshot.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::EpochDone { .. } => "epoch_done",
            ObsEvent::GuardTripped { .. } => "guard_tripped",
            ObsEvent::RolledBack { .. } => "rolled_back",
            ObsEvent::RetriesExhausted { .. } => "retries_exhausted",
            ObsEvent::CheckpointSaved { .. } => "checkpoint_saved",
            ObsEvent::CheckpointResumed { .. } => "checkpoint_resumed",
            ObsEvent::BreakerTransition { .. } => "breaker_transition",
            ObsEvent::TaintLatched { .. } => "taint_latched",
            ObsEvent::WeightsSwapped { .. } => "weights_swapped",
            ObsEvent::CanaryStarted { .. } => "canary_started",
            ObsEvent::CandidatePromoted { .. } => "candidate_promoted",
            ObsEvent::CandidateRolledBack { .. } => "candidate_rolled_back",
            ObsEvent::OfferRejected { .. } => "offer_rejected",
            ObsEvent::RespawnBackoff { .. } => "respawn_backoff",
            ObsEvent::ReplicaSteal { .. } => "replica_steal",
            ObsEvent::ReplicaStalled { .. } => "replica_stalled",
            ObsEvent::ReplicaQuarantined { .. } => "replica_quarantined",
            ObsEvent::ReplicaRejoined { .. } => "replica_rejoined",
            ObsEvent::RequestHedged { .. } => "request_hedged",
            ObsEvent::WalAppend { .. } => "wal_append",
            ObsEvent::WalTruncatedTail { .. } => "wal_truncated_tail",
            ObsEvent::RecoveryStarted => "recovery_started",
            ObsEvent::RecoveryComplete { .. } => "recovery_complete",
            ObsEvent::Custom { .. } => "custom",
        }
    }

    /// Append this event as one JSON object: `{"seq":N,"kind":...,fields}`.
    pub(crate) fn push_json(&self, out: &mut String, seq: u64) {
        out.push_str(&format!("{{\"seq\":{seq},\"kind\":"));
        json::push_str(out, self.kind());
        match self {
            ObsEvent::EpochDone {
                epoch,
                train_loss,
                dev_score,
            } => {
                out.push_str(&format!(",\"epoch\":{epoch},\"train_loss\":"));
                json::push_f32(out, *train_loss);
                out.push_str(",\"dev_score\":");
                json::push_f32(out, *dev_score);
            }
            ObsEvent::GuardTripped { epoch, reason } => {
                out.push_str(&format!(",\"epoch\":{epoch},\"reason\":"));
                json::push_str(out, reason);
            }
            ObsEvent::RolledBack {
                to_epoch,
                retry,
                lr_scale,
            } => {
                out.push_str(&format!(
                    ",\"to_epoch\":{to_epoch},\"retry\":{retry},\"lr_scale\":"
                ));
                json::push_f32(out, *lr_scale);
            }
            ObsEvent::RetriesExhausted { epoch } => {
                out.push_str(&format!(",\"epoch\":{epoch}"));
            }
            ObsEvent::CheckpointSaved { next_epoch } => {
                out.push_str(&format!(",\"next_epoch\":{next_epoch}"));
            }
            ObsEvent::CheckpointResumed { next_epoch } => {
                out.push_str(&format!(",\"next_epoch\":{next_epoch}"));
            }
            ObsEvent::BreakerTransition { from, to, cause } => {
                out.push_str(",\"from\":");
                json::push_str(out, from);
                out.push_str(",\"to\":");
                json::push_str(out, to);
                out.push_str(",\"cause\":");
                json::push_str(out, cause);
            }
            ObsEvent::TaintLatched {
                op,
                node_id,
                first_bad_index,
            } => {
                out.push_str(",\"op\":");
                json::push_str(out, op);
                out.push_str(&format!(
                    ",\"node_id\":{node_id},\"first_bad_index\":{first_bad_index}"
                ));
            }
            ObsEvent::WeightsSwapped { version }
            | ObsEvent::CanaryStarted { version }
            | ObsEvent::CandidatePromoted { version } => {
                out.push_str(&format!(",\"version\":{version}"));
            }
            ObsEvent::CandidateRolledBack { version, cause } => {
                out.push_str(&format!(",\"version\":{version},\"cause\":"));
                json::push_str(out, cause);
            }
            ObsEvent::OfferRejected { cause, detail } => {
                out.push_str(",\"cause\":");
                json::push_str(out, cause);
                out.push_str(",\"detail\":");
                json::push_str(out, detail);
            }
            ObsEvent::RespawnBackoff {
                slot,
                attempt,
                delay_ms,
            } => {
                out.push_str(&format!(
                    ",\"slot\":{slot},\"attempt\":{attempt},\"delay_ms\":{delay_ms}"
                ));
            }
            ObsEvent::ReplicaSteal { thief, victim, n } => {
                out.push_str(&format!(",\"thief\":{thief},\"victim\":{victim},\"n\":{n}"));
            }
            ObsEvent::ReplicaStalled { slot }
            | ObsEvent::ReplicaQuarantined { slot }
            | ObsEvent::ReplicaRejoined { slot } => {
                out.push_str(&format!(",\"slot\":{slot}"));
            }
            ObsEvent::RequestHedged { from, to } => {
                out.push_str(&format!(",\"from\":{from},\"to\":{to}"));
            }
            ObsEvent::WalAppend { record } => {
                out.push_str(",\"record\":");
                json::push_str(out, record);
            }
            ObsEvent::WalTruncatedTail { lost_bytes } => {
                out.push_str(&format!(",\"lost_bytes\":{lost_bytes}"));
            }
            ObsEvent::RecoveryStarted => {}
            ObsEvent::RecoveryComplete {
                records,
                generation,
            } => {
                out.push_str(&format!(
                    ",\"records\":{records},\"generation\":{generation}"
                ));
            }
            ObsEvent::Custom { kind, detail } => {
                out.push_str(",\"custom_kind\":");
                json::push_str(out, kind);
                out.push_str(",\"detail\":");
                json::push_str(out, detail);
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            ObsEvent::EpochDone {
                epoch: 0,
                train_loss: 0.0,
                dev_score: 0.0
            }
            .kind(),
            "epoch_done"
        );
        assert_eq!(
            ObsEvent::WeightsSwapped { version: 2 }.kind(),
            "weights_swapped"
        );
        assert_eq!(
            ObsEvent::CanaryStarted { version: 3 }.kind(),
            "canary_started"
        );
        assert_eq!(
            ObsEvent::CandidatePromoted { version: 3 }.kind(),
            "candidate_promoted"
        );
        assert_eq!(
            ObsEvent::CandidateRolledBack {
                version: 3,
                cause: "accuracy_regressed".into()
            }
            .kind(),
            "candidate_rolled_back"
        );
        assert_eq!(
            ObsEvent::OfferRejected {
                cause: "crc_mismatch".into(),
                detail: String::new()
            }
            .kind(),
            "offer_rejected"
        );
        assert_eq!(
            ObsEvent::RespawnBackoff {
                slot: 0,
                attempt: 1,
                delay_ms: 10
            }
            .kind(),
            "respawn_backoff"
        );
        assert_eq!(
            ObsEvent::ReplicaSteal {
                thief: 2,
                victim: 0,
                n: 4
            }
            .kind(),
            "replica_steal"
        );
        assert_eq!(
            ObsEvent::WalAppend { record: "promoted" }.kind(),
            "wal_append"
        );
        assert_eq!(
            ObsEvent::WalTruncatedTail { lost_bytes: 6 }.kind(),
            "wal_truncated_tail"
        );
        assert_eq!(
            ObsEvent::ReplicaStalled { slot: 1 }.kind(),
            "replica_stalled"
        );
        assert_eq!(
            ObsEvent::ReplicaQuarantined { slot: 1 }.kind(),
            "replica_quarantined"
        );
        assert_eq!(
            ObsEvent::ReplicaRejoined { slot: 1 }.kind(),
            "replica_rejoined"
        );
        assert_eq!(
            ObsEvent::RequestHedged { from: 1, to: 0 }.kind(),
            "request_hedged"
        );
        assert_eq!(ObsEvent::RecoveryStarted.kind(), "recovery_started");
        assert_eq!(
            ObsEvent::RecoveryComplete {
                records: 4,
                generation: 2
            }
            .kind(),
            "recovery_complete"
        );
    }

    #[test]
    fn durability_events_serialize_stably() {
        let mut out = String::new();
        ObsEvent::RecoveryStarted.push_json(&mut out, 0);
        assert_eq!(out, r#"{"seq":0,"kind":"recovery_started"}"#);
        let mut out = String::new();
        ObsEvent::WalAppend { record: "promoted" }.push_json(&mut out, 1);
        assert_eq!(out, r#"{"seq":1,"kind":"wal_append","record":"promoted"}"#);
        let mut out = String::new();
        ObsEvent::WalTruncatedTail { lost_bytes: 13 }.push_json(&mut out, 2);
        assert_eq!(
            out,
            r#"{"seq":2,"kind":"wal_truncated_tail","lost_bytes":13}"#
        );
        let mut out = String::new();
        ObsEvent::RecoveryComplete {
            records: 9,
            generation: 3,
        }
        .push_json(&mut out, 3);
        assert_eq!(
            out,
            r#"{"seq":3,"kind":"recovery_complete","records":9,"generation":3}"#
        );
    }

    #[test]
    fn health_events_serialize_stably() {
        let mut out = String::new();
        ObsEvent::ReplicaStalled { slot: 2 }.push_json(&mut out, 7);
        assert_eq!(out, r#"{"seq":7,"kind":"replica_stalled","slot":2}"#);
        let mut out = String::new();
        ObsEvent::ReplicaQuarantined { slot: 2 }.push_json(&mut out, 8);
        assert_eq!(out, r#"{"seq":8,"kind":"replica_quarantined","slot":2}"#);
        let mut out = String::new();
        ObsEvent::ReplicaRejoined { slot: 2 }.push_json(&mut out, 9);
        assert_eq!(out, r#"{"seq":9,"kind":"replica_rejoined","slot":2}"#);
        let mut out = String::new();
        ObsEvent::RequestHedged { from: 2, to: 0 }.push_json(&mut out, 10);
        assert_eq!(out, r#"{"seq":10,"kind":"request_hedged","from":2,"to":0}"#);
    }

    #[test]
    fn replica_steal_serializes_stably() {
        let mut out = String::new();
        ObsEvent::ReplicaSteal {
            thief: 3,
            victim: 1,
            n: 8,
        }
        .push_json(&mut out, 5);
        assert_eq!(
            out,
            r#"{"seq":5,"kind":"replica_steal","thief":3,"victim":1,"n":8}"#
        );
    }

    #[test]
    fn promotion_events_serialize_stably() {
        let mut out = String::new();
        ObsEvent::CandidateRolledBack {
            version: 3,
            cause: "candidate_faults".into(),
        }
        .push_json(&mut out, 2);
        assert_eq!(
            out,
            r#"{"seq":2,"kind":"candidate_rolled_back","version":3,"cause":"candidate_faults"}"#
        );
        let mut out = String::new();
        ObsEvent::OfferRejected {
            cause: "shape_mismatch".into(),
            detail: "tensor 0 is [3, 2]".into(),
        }
        .push_json(&mut out, 0);
        assert_eq!(
            out,
            r#"{"seq":0,"kind":"offer_rejected","cause":"shape_mismatch","detail":"tensor 0 is [3, 2]"}"#
        );
    }

    #[test]
    fn serializes_with_seq_and_kind() {
        let mut out = String::new();
        ObsEvent::BreakerTransition {
            from: "Closed".into(),
            to: "Degraded".into(),
            cause: "generator failures".into(),
        }
        .push_json(&mut out, 7);
        assert_eq!(
            out,
            r#"{"seq":7,"kind":"breaker_transition","from":"Closed","to":"Degraded","cause":"generator failures"}"#
        );
    }
}
