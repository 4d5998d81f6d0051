//! Model variants of `A^opt` (paper Section 8 and remarks): one
//! [`Policy`](crate::Policy) each on the shared [`AOptCore`](crate::AOptCore).

mod adaptive;
mod discrete;
mod envelope;
mod external;
mod jump;
mod min_gap;
mod offset;
mod piggyback;

pub use adaptive::{Adaptive, AdaptiveAOpt, AdaptiveMsg, MsgKind};
pub use discrete::{Discrete, DiscreteAOpt, DiscreteMsg};
pub use envelope::{Envelope, EnvelopeAOpt};
pub use external::{External, ExternalAOpt, ExternalMsg};
pub use jump::AOptJump;
pub use min_gap::{MinGap, MinGapAOpt};
pub use offset::{Offset, OffsetAOpt};
pub use piggyback::{Piggyback, PiggybackAOpt, PiggybackMsg};
