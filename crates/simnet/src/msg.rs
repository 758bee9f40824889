//! Messages exchanged between simulated processes.

use crate::ids::{Addr, HostId, Pid, Port};

/// A message as seen by a receiving process.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sending process.
    pub from: Pid,
    /// Host the sender was running on when the message was sent.
    pub from_host: HostId,
    /// Destination the sender addressed (useful when one process listens on
    /// several ports).
    pub to: Addr,
    /// Payload.
    pub payload: Payload,
}

/// Message payload.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Application bytes.
    Data(Vec<u8>),
    /// Connection-reset notification: a previous send to `(host, port)` was
    /// addressed to a port with no listener (the host was up). This is the
    /// simulated analogue of a TCP RST and is what lets an ORB client raise
    /// `COMM_FAILURE` quickly when a server process has died.
    Rst { host: HostId, port: Port },
    /// Keepalive answer: a [`Ctx::probe`](crate::Ctx::probe) of
    /// `(host, port)` found the host up and the port bound. The host's
    /// kernel answers, not the process behind the port, so it arrives
    /// however busy that process is — the simulated analogue of a TCP
    /// keepalive ACK, and what lets a client tell a slow peer from a dead
    /// one.
    Alive { host: HostId, port: Port },
}

impl Msg {
    /// The application bytes, if this is a data message.
    pub fn data(&self) -> Option<&[u8]> {
        match &self.payload {
            Payload::Data(d) => Some(d),
            Payload::Rst { .. } | Payload::Alive { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(payload: Payload) -> Msg {
        Msg {
            from: Pid(1),
            from_host: HostId(0),
            to: Addr::Endpoint(HostId(1), Port(5)),
            payload,
        }
    }

    #[test]
    fn data_accessor() {
        let m = mk(Payload::Data(vec![1, 2, 3]));
        assert_eq!(m.data(), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn rst_accessor() {
        let m = mk(Payload::Rst {
            host: HostId(1),
            port: Port(5),
        });
        assert_eq!(m.data(), None);
    }
}
