//! Wire types of the monitoring event channel (CDR-encoded, carried over
//! the ORB as `oneway push` batches).
//!
//! The contract is `idl/monitor.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it: [`Event`], the [`EventChannel`](Monitor::EventChannel)
//! trait and skeleton the channel servant runs behind, and the
//! [`EventChannelStub`] publishers and subscribers call through.
//!
//! `EventBody` is a tagged union with per-variant payloads, which IDL
//! `native` leaves to this module — the `CdrWrite`/`CdrRead` impls below
//! hand-encode a `u32` discriminant followed by the variant fields,
//! exactly the layout an IDL `union` switch would produce.
//!
//! Loads travel as **milli-units** (`load_avg * 1000`, rounded) so every
//! consumer formats them with integer arithmetic — a determinism
//! constraint, not a bandwidth one (DESIGN.md §10).

use cdr::{CdrDecoder, CdrEncoder, CdrError, CdrRead, CdrResult, CdrWrite, Epoch};

include!("generated.rs");
pub use Monitor::{Event, EventChannelSkeleton, EventChannelStub};

/// Repository id of the event channel interface.
pub const EVENT_CHANNEL_TYPE: &str = EventChannelStub::REPO_ID;

/// Convert a non-negative float quantity (a load average, a utilization)
/// to milli-units for the wire. All downstream formatting is integer.
pub fn milli(value: f64) -> u64 {
    (value.max(0.0) * 1000.0).round() as u64
}

/// The well-known name the channel is registered under in the naming
/// service (a plain object binding — resolvable like everything else).
pub const EVENT_CHANNEL_NAME: &str = "MonitorChannel";

impl Event {
    /// Total order of the event stream: virtual publish time, ties broken
    /// by publisher identity and per-publisher sequence.
    pub fn key(&self) -> (u64, u32, u32, u64) {
        (self.time_ns, self.host, self.pid, self.seq)
    }
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
    /// Kernel: a process was spawned.
    ProcSpawn {
        /// Process name.
        name: String,
    },
    /// Kernel: a process exited cleanly.
    ProcExit {
        /// Process name.
        name: String,
    },
    /// Kernel: a process was killed.
    ProcKill {
        /// Process name.
        name: String,
    },
    /// Kernel: a host crashed.
    HostCrash,
    /// Kernel: a crashed host came back up.
    HostRestart,
    /// Kernel: a partition cut the network between two host sets (for a
    /// one-way drop, traffic from `a_hosts` to `b_hosts` is lost while the
    /// reverse direction still flows).
    PartitionStart {
        /// Hosts on one side of the cut (the sending side for one-way).
        a_hosts: Vec<u32>,
        /// Hosts on the other side.
        b_hosts: Vec<u32>,
        /// Whether only the `a_hosts` → `b_hosts` direction is cut.
        oneway: bool,
    },
    /// Kernel: a previously announced partition healed.
    PartitionHeal {
        /// Hosts on one side of the healed cut.
        a_hosts: Vec<u32>,
        /// Hosts on the other side.
        b_hosts: Vec<u32>,
        /// Whether the healed cut was one-way.
        oneway: bool,
    },
    /// Kernel: a link entered gray-failure degradation (extra latency
    /// and/or probabilistic drops).
    LinkDegraded {
        /// One endpoint host.
        peer_a: u32,
        /// The other endpoint host.
        peer_b: u32,
    },
    /// Kernel: a degraded link returned to its healthy profile.
    LinkRestored {
        /// One endpoint host.
        peer_a: u32,
        /// The other endpoint host.
        peer_b: u32,
    },
    /// Kernel: a host's wall clock was skewed relative to virtual time.
    ClockSkew {
        /// Signed offset applied to the host clock, nanoseconds.
        skew_ns: i64,
    },
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
            EventBody::ViewChange { .. } => "view-change",
            EventBody::QuorumWrite { .. } => "quorum-write",
            EventBody::RequestDone { .. } => "request-done",
            EventBody::ProcSpawn { .. } => "proc-spawn",
            EventBody::ProcExit { .. } => "proc-exit",
            EventBody::ProcKill { .. } => "proc-kill",
            EventBody::HostCrash => "host-crash",
            EventBody::HostRestart => "host-restart",
            EventBody::PartitionStart { .. } => "partition-start",
            EventBody::PartitionHeal { .. } => "partition-heal",
            EventBody::LinkDegraded { .. } => "link-degraded",
            EventBody::LinkRestored { .. } => "link-restored",
            EventBody::ClockSkew { .. } => "clock-skew",
        }
    }

    /// Deterministic label of a partition: sorted host lists plus the
    /// direction marker. Used as the episode key in the doctor so a heal
    /// matches exactly the cut that opened it.
    pub fn partition_key(a_hosts: &[u32], b_hosts: &[u32], oneway: bool) -> String {
        let render = |hosts: &[u32]| {
            let mut sorted = hosts.to_vec();
            sorted.sort_unstable();
            sorted
                .iter()
                .map(|h| format!("h{h}"))
                .collect::<Vec<_>>()
                .join("+")
        };
        let (a, b) = (render(a_hosts), render(b_hosts));
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
            EventBody::ProcSpawn { name }
            | EventBody::ProcExit { name }
            | EventBody::ProcKill { name } => format!("name={name}"),
            EventBody::HostCrash | EventBody::HostRestart => String::new(),
            EventBody::PartitionStart {
                a_hosts,
                b_hosts,
                oneway,
            }
            | EventBody::PartitionHeal {
                a_hosts,
                b_hosts,
                oneway,
            } => format!(
                "cut={}",
                EventBody::partition_key(a_hosts, b_hosts, *oneway)
            ),
            EventBody::LinkDegraded { peer_a, peer_b }
            | EventBody::LinkRestored { peer_a, peer_b } => {
                format!("link=h{peer_a}-h{peer_b}")
            }
            EventBody::ClockSkew { skew_ns } => format!("skew_ns={skew_ns}"),
        }
    }
}

// Discriminants of the hand-encoded union. Kept explicit (not derived from
// declaration order) so reordering variants cannot silently change the
// wire format.
const TAG_LOAD_REPORT: u32 = 0;
const TAG_PLACEMENT: u32 = 1;
const TAG_FAILURE_DETECTED: u32 = 2;
const TAG_RECOVERY_STARTED: u32 = 3;
const TAG_RECOVERY_FINISHED: u32 = 4;
const TAG_CHECKPOINT_STORED: u32 = 5;
const TAG_VIEW_CHANGE: u32 = 6;
const TAG_QUORUM_WRITE: u32 = 7;
const TAG_REQUEST_DONE: u32 = 8;
const TAG_PROC_SPAWN: u32 = 9;
const TAG_PROC_EXIT: u32 = 10;
const TAG_PROC_KILL: u32 = 11;
const TAG_HOST_CRASH: u32 = 12;
const TAG_HOST_RESTART: u32 = 13;
const TAG_PARTITION_START: u32 = 14;
const TAG_PARTITION_HEAL: u32 = 15;
const TAG_LINK_DEGRADED: u32 = 16;
const TAG_LINK_RESTORED: u32 = 17;
const TAG_CLOCK_SKEW: u32 = 18;

impl CdrWrite for EventBody {
    fn write(&self, enc: &mut CdrEncoder) {
        match self {
            EventBody::LoadReport {
                runnable,
                load_milli,
                cpu_milli,
            } => {
                TAG_LOAD_REPORT.write(enc);
                runnable.write(enc);
                load_milli.write(enc);
                cpu_milli.write(enc);
            }
            EventBody::Placement {
                chosen,
                chosen_load_milli,
                min_load_milli,
            } => {
                TAG_PLACEMENT.write(enc);
                chosen.write(enc);
                chosen_load_milli.write(enc);
                min_load_milli.write(enc);
            }
            EventBody::FailureDetected { target, reason } => {
                TAG_FAILURE_DETECTED.write(enc);
                target.write(enc);
                reason.write(enc);
            }
            EventBody::RecoveryStarted { target, attempt } => {
                TAG_RECOVERY_STARTED.write(enc);
                target.write(enc);
                attempt.write(enc);
            }
            EventBody::RecoveryFinished { target, dur_ns } => {
                TAG_RECOVERY_FINISHED.write(enc);
                target.write(enc);
                dur_ns.write(enc);
            }
            EventBody::CheckpointStored {
                target,
                epoch,
                bytes,
                dur_ns,
            } => {
                TAG_CHECKPOINT_STORED.write(enc);
                target.write(enc);
                epoch.write(enc);
                bytes.write(enc);
                dur_ns.write(enc);
            }
            EventBody::ViewChange { members, quorum } => {
                TAG_VIEW_CHANGE.write(enc);
                members.write(enc);
                quorum.write(enc);
            }
            EventBody::QuorumWrite {
                object,
                epoch,
                acks,
                view,
                quorum,
            } => {
                TAG_QUORUM_WRITE.write(enc);
                object.write(enc);
                epoch.write(enc);
                acks.write(enc);
                view.write(enc);
                quorum.write(enc);
            }
            EventBody::RequestDone {
                target,
                wait_ns,
                service_ns,
                ckpt_ns,
            } => {
                TAG_REQUEST_DONE.write(enc);
                target.write(enc);
                wait_ns.write(enc);
                service_ns.write(enc);
                ckpt_ns.write(enc);
            }
            EventBody::ProcSpawn { name } => {
                TAG_PROC_SPAWN.write(enc);
                name.write(enc);
            }
            EventBody::ProcExit { name } => {
                TAG_PROC_EXIT.write(enc);
                name.write(enc);
            }
            EventBody::ProcKill { name } => {
                TAG_PROC_KILL.write(enc);
                name.write(enc);
            }
            EventBody::HostCrash => TAG_HOST_CRASH.write(enc),
            EventBody::HostRestart => TAG_HOST_RESTART.write(enc),
            EventBody::PartitionStart {
                a_hosts,
                b_hosts,
                oneway,
            } => {
                TAG_PARTITION_START.write(enc);
                a_hosts.write(enc);
                b_hosts.write(enc);
                oneway.write(enc);
            }
            EventBody::PartitionHeal {
                a_hosts,
                b_hosts,
                oneway,
            } => {
                TAG_PARTITION_HEAL.write(enc);
                a_hosts.write(enc);
                b_hosts.write(enc);
                oneway.write(enc);
            }
            EventBody::LinkDegraded { peer_a, peer_b } => {
                TAG_LINK_DEGRADED.write(enc);
                peer_a.write(enc);
                peer_b.write(enc);
            }
            EventBody::LinkRestored { peer_a, peer_b } => {
                TAG_LINK_RESTORED.write(enc);
                peer_a.write(enc);
                peer_b.write(enc);
            }
            EventBody::ClockSkew { skew_ns } => {
                TAG_CLOCK_SKEW.write(enc);
                skew_ns.write(enc);
            }
        }
    }
}

impl CdrRead for EventBody {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let tag = u32::read(dec)?;
        Ok(match tag {
            TAG_LOAD_REPORT => EventBody::LoadReport {
                runnable: u32::read(dec)?,
                load_milli: u64::read(dec)?,
                cpu_milli: u64::read(dec)?,
            },
            TAG_PLACEMENT => EventBody::Placement {
                chosen: u32::read(dec)?,
                chosen_load_milli: u64::read(dec)?,
                min_load_milli: u64::read(dec)?,
            },
            TAG_FAILURE_DETECTED => EventBody::FailureDetected {
                target: String::read(dec)?,
                reason: String::read(dec)?,
            },
            TAG_RECOVERY_STARTED => EventBody::RecoveryStarted {
                target: String::read(dec)?,
                attempt: u32::read(dec)?,
            },
            TAG_RECOVERY_FINISHED => EventBody::RecoveryFinished {
                target: String::read(dec)?,
                dur_ns: u64::read(dec)?,
            },
            TAG_CHECKPOINT_STORED => EventBody::CheckpointStored {
                target: String::read(dec)?,
                epoch: Epoch::read(dec)?,
                bytes: u64::read(dec)?,
                dur_ns: u64::read(dec)?,
            },
            TAG_VIEW_CHANGE => EventBody::ViewChange {
                members: u32::read(dec)?,
                quorum: u32::read(dec)?,
            },
            TAG_QUORUM_WRITE => EventBody::QuorumWrite {
                object: String::read(dec)?,
                epoch: Epoch::read(dec)?,
                acks: u32::read(dec)?,
                view: u32::read(dec)?,
                quorum: u32::read(dec)?,
            },
            TAG_REQUEST_DONE => EventBody::RequestDone {
                target: String::read(dec)?,
                wait_ns: u64::read(dec)?,
                service_ns: u64::read(dec)?,
                ckpt_ns: u64::read(dec)?,
            },
            TAG_PROC_SPAWN => EventBody::ProcSpawn {
                name: String::read(dec)?,
            },
            TAG_PROC_EXIT => EventBody::ProcExit {
                name: String::read(dec)?,
            },
            TAG_PROC_KILL => EventBody::ProcKill {
                name: String::read(dec)?,
            },
            TAG_HOST_CRASH => EventBody::HostCrash,
            TAG_HOST_RESTART => EventBody::HostRestart,
            TAG_PARTITION_START => EventBody::PartitionStart {
                a_hosts: Vec::read(dec)?,
                b_hosts: Vec::read(dec)?,
                oneway: bool::read(dec)?,
            },
            TAG_PARTITION_HEAL => EventBody::PartitionHeal {
                a_hosts: Vec::read(dec)?,
                b_hosts: Vec::read(dec)?,
                oneway: bool::read(dec)?,
            },
            TAG_LINK_DEGRADED => EventBody::LinkDegraded {
                peer_a: u32::read(dec)?,
                peer_b: u32::read(dec)?,
            },
            TAG_LINK_RESTORED => EventBody::LinkRestored {
                peer_a: u32::read(dec)?,
                peer_b: u32::read(dec)?,
            },
            TAG_CLOCK_SKEW => EventBody::ClockSkew {
                skew_ns: i64::read(dec)?,
            },
            other => return Err(CdrError::InvalidEnumTag(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(body: EventBody) {
        let ev = Event {
            time_ns: 42,
            host: 3,
            pid: 7,
            seq: 9,
            body,
        };
        let bytes = cdr::to_bytes(&ev);
        let back: Event = cdr::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, ev);
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(EventBody::LoadReport {
            runnable: 2,
            load_milli: 1500,
            cpu_milli: 900,
        });
        roundtrip(EventBody::Placement {
            chosen: 4,
            chosen_load_milli: 100,
            min_load_milli: 100,
        });
        roundtrip(EventBody::FailureDetected {
            target: "w".into(),
            reason: "COMM_FAILURE".into(),
        });
        roundtrip(EventBody::RecoveryStarted {
            target: "w".into(),
            attempt: 1,
        });
        roundtrip(EventBody::RecoveryFinished {
            target: "w".into(),
            dur_ns: 5,
        });
        roundtrip(EventBody::CheckpointStored {
            target: "w".into(),
            epoch: Epoch(3),
            bytes: 128,
            dur_ns: 7,
        });
        roundtrip(EventBody::ViewChange {
            members: 3,
            quorum: 2,
        });
        roundtrip(EventBody::QuorumWrite {
            object: "o".into(),
            epoch: Epoch(1),
            acks: 2,
            view: 3,
            quorum: 2,
        });
        roundtrip(EventBody::RequestDone {
            target: "w".into(),
            wait_ns: 1,
            service_ns: 2,
            ckpt_ns: 3,
        });
        roundtrip(EventBody::ProcSpawn { name: "p".into() });
        roundtrip(EventBody::ProcExit { name: "p".into() });
        roundtrip(EventBody::ProcKill { name: "p".into() });
        roundtrip(EventBody::HostCrash);
        roundtrip(EventBody::HostRestart);
        roundtrip(EventBody::PartitionStart {
            a_hosts: vec![0, 2],
            b_hosts: vec![1, 3],
            oneway: false,
        });
        roundtrip(EventBody::PartitionHeal {
            a_hosts: vec![0],
            b_hosts: vec![1],
            oneway: true,
        });
        roundtrip(EventBody::LinkDegraded {
            peer_a: 0,
            peer_b: 2,
        });
        roundtrip(EventBody::LinkRestored {
            peer_a: 0,
            peer_b: 2,
        });
        roundtrip(EventBody::ClockSkew { skew_ns: -750_000 });
    }

    #[test]
    fn partition_key_is_order_insensitive_for_two_way_cuts() {
        assert_eq!(EventBody::partition_key(&[2, 0], &[1], false), "h0+h2|h1");
        assert_eq!(EventBody::partition_key(&[1], &[0, 2], false), "h0+h2|h1");
        // One-way cuts keep their direction.
        assert_eq!(EventBody::partition_key(&[1], &[0], true), "h1->h0");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let bytes = cdr::to_bytes(&99u32);
        assert!(matches!(
            cdr::from_bytes::<EventBody>(&bytes),
            Err(CdrError::InvalidEnumTag(99))
        ));
    }
}
