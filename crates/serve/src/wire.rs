//! The line-delimited wire protocol between `alberta-serve` and its
//! clients.
//!
//! Every message is one line of compact canonical JSON with a `type`
//! discriminator, mirroring the worker pipe protocol in
//! `alberta_core::protocol`: a versioned hello handshake first, then
//! typed messages. A client optionally declares group membership in its
//! hello; the daemon holds the drain of every member of a group until
//! the whole group has drained, resolves the union as one batch, and
//! answers each member in canonical token order — which is what makes
//! the storm's counters independent of socket arrival order.

use alberta_core::json::{
    self, opt, req, unknown_tag, DecodeError, Fields, FromJson, ToJson, Value,
};
use alberta_core::json_codec;

use crate::engine::{EngineStats, ResponseCounts};
use crate::spec::RequestSpec;

/// Wire protocol version; the hello handshake rejects mismatches.
///
/// v2 added the optional `client` name in the hello (the first half of
/// every request label) and the `metrics`/`spans` telemetry commands.
pub const WIRE_VERSION: u64 = 2;

/// A client's group membership: requests from all `size` members are
/// resolved as one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupInfo {
    /// Group identity (all members use the same id).
    pub id: String,
    /// Number of members the daemon must wait for.
    pub size: u64,
    /// This member's index, `0..size`; orders the batch.
    pub member: u64,
}

json_codec!(GroupInfo { id, size, member });

/// Client-to-daemon messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake; must be the first message on a connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        protocol: u64,
        /// Self-chosen client name; the first half of every request
        /// label this connection mints (`client#id`). Anonymous
        /// connections are labeled `anon`.
        client: Option<String>,
        /// Optional group membership.
        group: Option<GroupInfo>,
    },
    /// Enqueue a characterization request.
    Request {
        /// Client-chosen id, echoed on the response.
        id: u64,
        /// What to characterize (boxed: the spec dwarfs every other
        /// message).
        spec: Box<RequestSpec>,
    },
    /// Resolve everything enqueued (for a grouped client: wait for the
    /// whole group, then resolve the union) and stream the responses.
    Drain,
    /// Ask for the engine's counter snapshot.
    Stats,
    /// Ask for the engine's two-plane metrics document.
    Metrics,
    /// Ask for the engine's ordered span log.
    Spans,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
}

impl ClientMsg {
    /// Encodes to one compact line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().render_compact()
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the problem.
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        json::decode(line)
    }
}

impl ToJson for ClientMsg {
    fn to_value(&self) -> Value {
        let tag = |tag: &str| Fields::new().put("type", tag);
        match self {
            ClientMsg::Hello {
                protocol,
                client,
                group,
            } => tag("hello")
                .put("protocol", protocol)
                .put_some("client", client)
                .put_some("group", group),
            ClientMsg::Request { id, spec } => {
                tag("request").put("id", id).put("spec", spec.as_ref())
            }
            ClientMsg::Drain => tag("drain"),
            ClientMsg::Stats => tag("stats"),
            ClientMsg::Metrics => tag("metrics"),
            ClientMsg::Spans => tag("spans"),
            ClientMsg::Shutdown => tag("shutdown"),
        }
        .build()
    }
}

impl FromJson for ClientMsg {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match req::<String>(value, "type")?.as_str() {
            "hello" => Ok(ClientMsg::Hello {
                protocol: req(value, "protocol")?,
                client: opt(value, "client")?,
                group: opt(value, "group")?,
            }),
            "request" => Ok(ClientMsg::Request {
                id: req(value, "id")?,
                spec: Box::new(req(value, "spec")?),
            }),
            "drain" => Ok(ClientMsg::Drain),
            "stats" => Ok(ClientMsg::Stats),
            "metrics" => Ok(ClientMsg::Metrics),
            "spans" => Ok(ClientMsg::Spans),
            "shutdown" => Ok(ClientMsg::Shutdown),
            other => Err(unknown_tag("type", other)),
        }
    }
}

/// Daemon-to-client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake reply.
    Hello {
        /// The daemon's [`WIRE_VERSION`].
        protocol: u64,
    },
    /// One resolved request.
    Response {
        /// The request id this answers.
        id: u64,
        /// Key-satisfaction counts.
        counts: ResponseCounts,
        /// The canonical body (a run record or a benchmark report).
        body: Value,
    },
    /// One failed request (bad benchmark or workload name).
    Error {
        /// The request id this answers.
        id: u64,
        /// What was wrong.
        message: String,
    },
    /// End of a drain: every enqueued request has been answered.
    Drained {
        /// Responses (including errors) sent before this marker.
        responses: u64,
    },
    /// The engine's counter snapshot.
    Stats(EngineStats),
    /// The engine's two-plane metrics document (a
    /// `alberta_report::MetricsDocument` wire value).
    Metrics {
        /// The document as its canonical wire object.
        document: Value,
    },
    /// The engine's ordered span log (a canonical array of span
    /// events).
    Spans {
        /// The log as its canonical wire array.
        spans: Value,
    },
    /// Acknowledges a shutdown request.
    Bye,
}

impl ServerMsg {
    /// Encodes to one compact line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().render_compact()
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the problem.
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        json::decode(line)
    }
}

impl ToJson for ServerMsg {
    fn to_value(&self) -> Value {
        let tag = |tag: &str| Fields::new().put("type", tag);
        match self {
            ServerMsg::Hello { protocol } => tag("hello").put("protocol", protocol),
            ServerMsg::Response { id, counts, body } => tag("response")
                .put("id", id)
                .put("counts", counts)
                .put("body", body),
            ServerMsg::Error { id, message } => tag("error").put("id", id).put("message", message),
            ServerMsg::Drained { responses } => tag("drained").put("responses", responses),
            ServerMsg::Stats(stats) => tag("stats").put("stats", stats),
            ServerMsg::Metrics { document } => tag("metrics").put("document", document),
            ServerMsg::Spans { spans } => tag("spans").put("spans", spans),
            ServerMsg::Bye => tag("bye"),
        }
        .build()
    }
}

impl FromJson for ServerMsg {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match req::<String>(value, "type")?.as_str() {
            "hello" => Ok(ServerMsg::Hello {
                protocol: req(value, "protocol")?,
            }),
            "response" => Ok(ServerMsg::Response {
                id: req(value, "id")?,
                counts: req(value, "counts")?,
                body: req(value, "body")?,
            }),
            "error" => Ok(ServerMsg::Error {
                id: req(value, "id")?,
                message: req(value, "message")?,
            }),
            "drained" => Ok(ServerMsg::Drained {
                responses: req(value, "responses")?,
            }),
            "stats" => Ok(ServerMsg::Stats(req(value, "stats")?)),
            "metrics" => Ok(ServerMsg::Metrics {
                document: req(value, "document")?,
            }),
            "spans" => Ok(ServerMsg::Spans {
                spans: req(value, "spans")?,
            }),
            "bye" => Ok(ServerMsg::Bye),
            other => Err(unknown_tag("type", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_core::Scale;

    #[test]
    fn client_messages_round_trip() {
        let messages = vec![
            ClientMsg::Hello {
                protocol: WIRE_VERSION,
                client: Some("storm-m2".to_owned()),
                group: Some(GroupInfo {
                    id: "storm-1".to_owned(),
                    size: 4,
                    member: 2,
                }),
            },
            ClientMsg::Request {
                id: 7,
                spec: Box::new(RequestSpec::new("mcf", Some("alberta.1"), Scale::Test)),
            },
            ClientMsg::Drain,
            ClientMsg::Stats,
            ClientMsg::Metrics,
            ClientMsg::Spans,
            ClientMsg::Shutdown,
        ];
        for msg in messages {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message, one line");
            assert_eq!(ClientMsg::decode(&line).expect("round trip"), msg);
        }
    }

    #[test]
    fn anonymous_hello_omits_the_client_field() {
        let msg = ClientMsg::Hello {
            protocol: WIRE_VERSION,
            client: None,
            group: None,
        };
        let line = msg.encode();
        assert!(!line.contains("client"), "{line}");
        assert_eq!(ClientMsg::decode(&line).unwrap(), msg);
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = vec![
            ServerMsg::Hello {
                protocol: WIRE_VERSION,
            },
            ServerMsg::Error {
                id: 3,
                message: "unknown benchmark \"nope\"".to_owned(),
            },
            ServerMsg::Drained { responses: 12 },
            ServerMsg::Metrics {
                document: Value::Object(vec![("schema_version".to_owned(), Value::UInt(1))]),
            },
            ServerMsg::Spans {
                spans: Value::Array(vec![Value::Object(vec![(
                    "seq".to_owned(),
                    Value::UInt(0),
                )])]),
            },
            ServerMsg::Bye,
        ];
        for msg in messages {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message, one line");
            assert_eq!(ServerMsg::decode(&line).expect("round trip"), msg);
        }
    }
}
