//! # cdr — CORBA Common Data Representation marshalling
//!
//! A from-scratch implementation of the CDR transfer syntax used by
//! GIOP/IIOP, providing the wire format for the mini-ORB in this
//! repository:
//!
//! * [`CdrEncoder`] / [`CdrDecoder`] — aligned little-endian primitive
//!   streams (the order GIOP frames from this ORB are flagged with).
//! * [`CdrWrite`] / [`CdrRead`] — typed (de)serialization, with
//!   [`cdr_struct!`] and [`cdr_enum!`] macros for protocol types.
//! * [`TypeCode`] and [`Any`] — runtime-typed, self-describing values for
//!   the Dynamic Invocation Interface.
//!
//! # Example
//!
//! ```
//! cdr::cdr_struct!(LoadReport { host: u32, load: f64 });
//!
//! let report = LoadReport { host: 3, load: 0.75 };
//! let bytes = cdr::to_bytes(&report);
//! let back: LoadReport = cdr::from_bytes(&bytes).unwrap();
//! assert_eq!(report, back);
//! ```

mod any;
mod decode;
mod encode;
mod epoch;
mod error;
mod traits;
mod typecode;

pub use any::{Any, Value};
pub use decode::CdrDecoder;
pub use encode::CdrEncoder;
pub use epoch::Epoch;
pub use error::{CdrError, CdrResult};
pub use traits::{from_bytes, from_bytes_into, to_bytes, CdrRead, CdrWrite};
pub use typecode::TypeCode;
