//! Federation failure taxonomy.

/// Why a federated operation failed.
#[derive(Debug)]
pub enum FederationError {
    /// Socket trouble dialing or talking to a daemon.
    Io(std::io::Error),
    /// The wire carried something out of protocol (bad handshake answer,
    /// unparseable line, frame for the wrong session).
    Protocol(String),
    /// A daemon answered with an `Error { message }`.
    Remote(String),
    /// The request itself is invalid (too few peers, self-peering).
    Config(String),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::Io(e) => write!(f, "connection error: {e}"),
            FederationError::Protocol(m) => write!(f, "protocol error: {m}"),
            FederationError::Remote(m) => write!(f, "remote error: {m}"),
            FederationError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<std::io::Error> for FederationError {
    fn from(e: std::io::Error) -> Self {
        FederationError::Io(e)
    }
}
