//! The event taxonomy (DESIGN.md §10): what the subsystems and the kernel
//! report to the doctor and the flight recorder.
//!
//! Product events are declared here; kernel lifecycle events are carried
//! as the kernel's own [`KernelEvent`] — one declaration, in `simnet`.
//!
//! Loads are reported in **milli-units** (`load_avg * 1000`, rounded) so
//! every consumer formats them with integer arithmetic — a determinism
//! constraint (DESIGN.md §10).

use cdr::Epoch;
use simnet::{HostId, KernelEvent};

/// Emitter pid of kernel-origin events (there is no sim process behind
/// them).
pub const KERNEL_PID: u32 = u32::MAX;

/// Convert a non-negative float quantity (a load average, a utilization)
/// to milli-units. All downstream formatting is integer.
pub fn milli(value: f64) -> u64 {
    (value.max(0.0) * 1000.0).round() as u64
}

/// One emitted event, stamped where it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Virtual time of the emission.
    pub time_ns: u64,
    /// Emitting host (the subject host for kernel events).
    pub host: u32,
    /// Emitting pid ([`KERNEL_PID`] for kernel events).
    pub pid: u32,
    /// What happened.
    pub body: EventBody,
}

/// The typed payload of an [`Event`]. Variant set = the union of what the
/// subsystems can report (DESIGN.md §10 taxonomy).
#[derive(Clone, Debug, PartialEq)]
pub enum EventBody {
    /// A Winner node manager's periodic load sample.
    LoadReport {
        /// Runnable processes on the host.
        runnable: u32,
        /// Load average in milli-units (`load_avg * 1000`).
        load_milli: u64,
        /// CPU utilization in milli-units (`cpu_util * 1000`).
        cpu_milli: u64,
    },
    /// The Winner system manager answered a `select`.
    Placement {
        /// Host the policy chose.
        chosen: u32,
        /// Effective load of the chosen host, milli-units.
        chosen_load_milli: u64,
        /// Minimum effective load among the candidates, milli-units.
        min_load_milli: u64,
    },
    /// The FT proxy classified a call failure as a dead target.
    FailureDetected {
        /// Object id of the failed target.
        target: String,
        /// Exception kind that triggered detection.
        reason: String,
    },
    /// The FT proxy began a recovery attempt.
    RecoveryStarted {
        /// Object id being recovered.
        target: String,
        /// 1-based attempt number within the episode.
        attempt: u32,
    },
    /// A call succeeded after one or more recoveries.
    RecoveryFinished {
        /// Object id that recovered.
        target: String,
        /// Episode duration: first failure to first post-recovery success.
        dur_ns: u64,
    },
    /// The FT proxy stored a checkpoint.
    CheckpointStored {
        /// Object id checkpointed.
        target: String,
        /// Checkpoint epoch.
        epoch: Epoch,
        /// Serialized checkpoint size.
        bytes: u64,
        /// Time spent storing it.
        dur_ns: u64,
    },
    /// The FT proxy adopted a replica (first bind or recovery) and says
    /// what state it starts from.
    StateRestored {
        /// Object id restored.
        target: String,
        /// Epoch pushed into the replica; `Epoch::ZERO` when nothing was
        /// pushed (it starts cold).
        epoch: Epoch,
    },
    /// A store coordinator observed a changed membership view.
    ViewChange {
        /// Live replicas in the new view.
        members: u32,
        /// Effective write quorum under the new view.
        quorum: u32,
    },
    /// A store coordinator completed (or failed) a quorum write.
    QuorumWrite {
        /// Object id written.
        object: String,
        /// Checkpoint epoch written.
        epoch: Epoch,
        /// Replicas that acked (counting the coordinator).
        acks: u32,
        /// View size at the time of the write.
        view: u32,
        /// Effective quorum the write needed.
        quorum: u32,
    },
    /// The FT proxy completed one logical request (critical-path
    /// attribution, measured client-side on the virtual clock).
    RequestDone {
        /// Object id the request went to.
        target: String,
        /// Queue-wait share: backoff sleeps + resolve/re-create time.
        wait_ns: u64,
        /// Service share: the successful invocation round-trip.
        service_ns: u64,
        /// Checkpoint overhead appended to the request.
        ckpt_ns: u64,
    },
    /// A kernel lifecycle or fault event, exactly as the kernel emitted it.
    Kernel(KernelEvent),
}

impl EventBody {
    /// Stable kind label used in counters, flight-recorder lines, and the
    /// doctor report.
    pub fn kind(&self) -> &'static str {
        match self {
            EventBody::LoadReport { .. } => "load-report",
            EventBody::Placement { .. } => "placement",
            EventBody::FailureDetected { .. } => "failure-detected",
            EventBody::RecoveryStarted { .. } => "recovery-started",
            EventBody::RecoveryFinished { .. } => "recovery-finished",
            EventBody::CheckpointStored { .. } => "checkpoint-stored",
            EventBody::StateRestored { .. } => "state-restored",
            EventBody::ViewChange { .. } => "view-change",
            EventBody::QuorumWrite { .. } => "quorum-write",
            EventBody::RequestDone { .. } => "request-done",
            EventBody::Kernel(kev) => match kev {
                KernelEvent::ProcSpawn { .. } => "proc-spawn",
                KernelEvent::ProcExit { .. } => "proc-exit",
                KernelEvent::ProcKill { .. } => "proc-kill",
                KernelEvent::HostCrash(_) => "host-crash",
                KernelEvent::HostRestart(_) => "host-restart",
                KernelEvent::PartitionStart { .. } => "partition-start",
                KernelEvent::PartitionHeal { .. } => "partition-heal",
                KernelEvent::LinkDegraded(..) => "link-degraded",
                KernelEvent::LinkRestored(..) => "link-restored",
                KernelEvent::ClockSkewSet(..) => "clock-skew",
            },
        }
    }

    /// Deterministic label of a partition: sorted host lists plus the
    /// direction marker. Used as the episode key in the doctor so a heal
    /// matches exactly the cut that opened it.
    pub fn partition_key(a: &[HostId], b: &[HostId], oneway: bool) -> String {
        let render = |hosts: &[HostId]| {
            let mut sorted = hosts.to_vec();
            sorted.sort_unstable();
            sorted
                .iter()
                .map(HostId::to_string)
                .collect::<Vec<_>>()
                .join("+")
        };
        let (a, b) = (render(a), render(b));
        if oneway {
            format!("{a}->{b}")
        } else if a <= b {
            format!("{a}|{b}")
        } else {
            format!("{b}|{a}")
        }
    }

    /// Deterministic one-line detail rendering (integers only) for the
    /// flight recorder.
    pub fn detail(&self) -> String {
        match self {
            EventBody::LoadReport {
                runnable,
                load_milli,
                cpu_milli,
            } => format!("runnable={runnable} load_milli={load_milli} cpu_milli={cpu_milli}"),
            EventBody::Placement {
                chosen,
                chosen_load_milli,
                min_load_milli,
            } => format!(
                "chosen=h{chosen} load_milli={chosen_load_milli} min_milli={min_load_milli}"
            ),
            EventBody::FailureDetected { target, reason } => {
                format!("target={target} reason={reason}")
            }
            EventBody::RecoveryStarted { target, attempt } => {
                format!("target={target} attempt={attempt}")
            }
            EventBody::RecoveryFinished { target, dur_ns } => {
                format!("target={target} dur_ns={dur_ns}")
            }
            EventBody::CheckpointStored {
                target,
                epoch,
                bytes,
                dur_ns,
            } => format!("target={target} epoch={epoch} bytes={bytes} dur_ns={dur_ns}"),
            EventBody::StateRestored { target, epoch } => {
                format!("target={target} epoch={epoch}")
            }
            EventBody::ViewChange { members, quorum } => {
                format!("members={members} quorum={quorum}")
            }
            EventBody::QuorumWrite {
                object,
                epoch,
                acks,
                view,
                quorum,
            } => format!("object={object} epoch={epoch} acks={acks} view={view} quorum={quorum}"),
            EventBody::RequestDone {
                target,
                wait_ns,
                service_ns,
                ckpt_ns,
            } => format!(
                "target={target} wait_ns={wait_ns} service_ns={service_ns} ckpt_ns={ckpt_ns}"
            ),
            EventBody::Kernel(kev) => match kev {
                KernelEvent::ProcSpawn { name, .. }
                | KernelEvent::ProcExit { name, .. }
                | KernelEvent::ProcKill { name, .. } => format!("name={name}"),
                KernelEvent::HostCrash(_) | KernelEvent::HostRestart(_) => String::new(),
                KernelEvent::PartitionStart { a, b, oneway }
                | KernelEvent::PartitionHeal { a, b, oneway } => {
                    format!("cut={}", EventBody::partition_key(a, b, *oneway))
                }
                KernelEvent::LinkDegraded(x, y) | KernelEvent::LinkRestored(x, y) => {
                    format!("link={x}-{y}")
                }
                KernelEvent::ClockSkewSet(_, skew_ns) => format!("skew_ns={skew_ns}"),
            },
        }
    }
}

impl Event {
    /// A kernel event as the stream carries it: stamped with its fire time
    /// and filed under the host it is about (the first `a`-side host for a
    /// partition, one endpoint for a link).
    pub(crate) fn from_kernel(time_ns: u64, kev: &KernelEvent) -> Event {
        let host = match kev {
            KernelEvent::ProcSpawn { host, .. }
            | KernelEvent::ProcExit { host, .. }
            | KernelEvent::ProcKill { host, .. }
            | KernelEvent::HostCrash(host)
            | KernelEvent::HostRestart(host)
            | KernelEvent::LinkDegraded(host, _)
            | KernelEvent::LinkRestored(host, _)
            | KernelEvent::ClockSkewSet(host, _) => host.0,
            KernelEvent::PartitionStart { a, .. } | KernelEvent::PartitionHeal { a, .. } => {
                a.first().map_or(0, |h| h.0)
            }
        };
        Event {
            time_ns,
            host,
            pid: KERNEL_PID,
            body: EventBody::Kernel(kev.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_key_is_order_insensitive_for_two_way_cuts() {
        let h = |ids: &[u32]| ids.iter().map(|&i| HostId(i)).collect::<Vec<_>>();
        assert_eq!(
            EventBody::partition_key(&h(&[2, 0]), &h(&[1]), false),
            "h0+h2|h1"
        );
        assert_eq!(
            EventBody::partition_key(&h(&[1]), &h(&[0, 2]), false),
            "h0+h2|h1"
        );
        // One-way cuts keep their direction.
        assert_eq!(EventBody::partition_key(&h(&[1]), &h(&[0]), true), "h1->h0");
    }

    #[test]
    fn kernel_events_keep_their_labels_and_subject_host() {
        let cut = KernelEvent::PartitionStart {
            a: vec![HostId(2)],
            b: vec![HostId(0)],
            oneway: true,
        };
        let ev = Event::from_kernel(7, &cut);
        assert_eq!((ev.time_ns, ev.host, ev.pid), (7, 2, KERNEL_PID));
        assert_eq!(ev.body.kind(), "partition-start");
        assert_eq!(ev.body.detail(), "cut=h2->h0");
        let skew = Event::from_kernel(9, &KernelEvent::ClockSkewSet(HostId(3), -750_000));
        assert_eq!((skew.host, skew.body.kind()), (3, "clock-skew"));
        assert_eq!(skew.body.detail(), "skew_ns=-750000");
    }
}
